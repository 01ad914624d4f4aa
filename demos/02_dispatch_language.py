"""
The dispatching model language
==============================

A dispatching model is plain text: one objective plus a block of
routing constraints. This walks through parsing, the canonical
round-trip, static well-formedness checks, and how a model is pulled
out of a chat completion.
"""

from vdsagent import dsl

# A complete program for the closed-road scenario. Both directions of
# the (6, 7) segment are removed from the network.
SOURCE = """\
model road_closure
objective minimize total_travel_time
constraints {
  flow_balance all
  remove_edge (6, 7)
  remove_edge (7, 6)
}
"""

ast = dsl.parse(SOURCE)
print(f"model name: {ast.name}")
print(f"objective:  {dsl.OBJECTIVE}")
print(f"statements: {[type(s).__name__ for s in ast.statements]}")

# render() emits canonical text, and parsing that text gives the same
# AST back. Formatting noise (extra spaces, blank lines) never survives
# a round-trip.
canonical = dsl.render(ast)
assert dsl.parse(canonical) == ast
print("\nround-trip stable:", dsl.render(dsl.parse(canonical)) == canonical)

# Static checks run before any network is consulted. A program that
# lost its flow conservation statement is rejected here, not at solve
# time.
broken = dsl.parse("""\
model oops
objective minimize total_travel_time
constraints {
  remove_edge (6, 7)
  remove_edge (6, 7)
}
""")
for err in dsl.static_check(broken):
    print(err)

# Parse errors carry the position of the offending token.
try:
    dsl.parse("model x\nobjective minimize total_travel_time\nconstraints {\n  remove_edge (6 7)\n}\n")
except dsl.DslError as exc:
    print("\n" + str(exc))

# Chat completions wrap the program in a fenced block; the extractor
# takes the last such block so a corrected re-emission wins.
completion = (
    "Here is the model.\n\n```vds-dsl\nmodel draft\n```\n"
    "Wait, the full version:\n\n```vds-dsl\n" + SOURCE + "```\n"
)
extracted = dsl.extract_dsl_block(completion)
print("\nextracted model name:", dsl.parse(extracted).name)
