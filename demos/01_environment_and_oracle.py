"""
The terminal environment and the exact routing oracle
=====================================================

Builds the standard 20-node yard grid, loads the packaged fleet, and
solves the dispatching problem exactly, first unconstrained and then
with the road between nodes 6 and 7 closed in both directions.
"""

from vdsagent.env import ScenarioSpec, default_network, env_digest, parse_environment
from vdsagent.cli import (DEFAULT_CONFIG_FILE, DEFAULT_NETWORK_FILE,
                          DEFAULT_REQUIREMENTS_FILE)
from vdsagent.solver import oracle_solve

# The grid is 4 rows x 5 columns: straight segments cost 10, plus one
# diagonal shortcut pair between nodes 6 and 10.
network = default_network()
print(f"nodes: {len(network.node_ids)}, "
      f"directed edges: {len(network.lengths())}")

# The packaged environment ships as three JSON files: network, fleet,
# and natural-language requirements.
env = parse_environment(DEFAULT_NETWORK_FILE.read_text(),
                        DEFAULT_CONFIG_FILE.read_text(),
                        DEFAULT_REQUIREMENTS_FILE.read_text())
digest = env_digest(env)
print("\nenvironment digest (what the modeling prompts see), first lines:")
for line in digest.splitlines():
    print(" ", line[:72] + ("..." if len(line) > 72 else ""))
print("\nstated requirement:", env.requirements.texts[0])

# Ground truth, no restrictions: every AGV takes a shortest path.
free = oracle_solve(env, None)
print(f"\nunconstrained objective: {free.objective:g}")

# Now the scenario the requirement describes: edge (6, 7) closed both
# ways. The oracle re-routes only the vehicles that used that road.
closure = ScenarioSpec("road_closure", edge=(6, 7))
closed = oracle_solve(env, closure)
print(f"objective under the closure: {closed.objective:g} "
      f"(+{closed.objective - free.objective:g})")

rerouted = [v for v in free.paths if free.paths[v] != closed.paths[v]]
print(f"vehicles that changed route: {len(rerouted)}")
for vehicle in rerouted[:3]:
    before = " -> ".join(map(str, free.paths[vehicle]))
    after = " -> ".join(map(str, closed.paths[vehicle]))
    print(f"  {vehicle}: {before}   becomes   {after}")
