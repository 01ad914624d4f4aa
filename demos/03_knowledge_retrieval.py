"""
Retrieving modeling knowledge for a new requirement
===================================================

The knowledge base holds two kinds of entries: modeling primitives
(how to express variables, constraints, objectives in the language)
and solved exemplars (requirement text plus the program that solved
it). Primitives always ride along; exemplars are ranked by BM25
against the terms of the incoming requirement.
"""

from vdsagent import knowledge as kb_mod
from vdsagent.env import env_digest
from vdsagent.instances import generate_instances

# The packaged seed knowledge base ships with the library.
kb = kb_mod.load_seed_kb()
print(f"seed store: {len(kb.primitives)} primitives, "
      f"{len(kb.exemplars)} exemplars")
for prim in kb.primitives:
    print(f"  primitive {prim.id} [{prim.category}]")
for ex in kb.exemplars:
    print(f"  exemplar  {ex.id}: {ex.description}")

# BM25 works on whitespace-and-punctuation tokens, lowercased; a query
# is its set of tokens, not the text.
query = "The road between node 6 and node 7 is closed."
terms = kb_mod.tokenize(query)
print("\nquery tokens:", terms)

# Retrieval returns every primitive plus the top-k exemplars with
# their scores.
ctx = kb_mod.retrieve(kb, terms, k=1)
for ex, score in zip(ctx.exemplars, ctx.scores):
    print(f"top exemplar: {ex.id} (score {score:.4f})")

# After a successful transfer the solved program is appended as a new
# exemplar, so later queries about the same situation rank it highly.
env, _ = generate_instances(7, "road_closure", 1)[0]
grown = kb_mod.accumulate(
    kb, env,
    program=ctx.exemplars[0].program,
    description="Closed segment near the quay; both directions removed.",
)
print(f"\nafter accumulate: {len(grown.exemplars)} exemplars, "
      f"newest id {grown.exemplars[-1].id}")
assert grown.exemplars[-1].env_digest == env_digest(env)

again = kb_mod.retrieve(grown, kb_mod.tokenize("closed segment near the quay"),
                       k=2)
print("re-query ranks:", [ex.id for ex in again.exemplars])
