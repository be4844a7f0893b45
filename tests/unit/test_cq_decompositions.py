"""Unit tests for Gaifman graphs, acyclicity, chordality and junction trees."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.containment import ContainmentStatus, decide_containment
from repro.cq.decompositions import (
    TreeDecomposition,
    candidate_tree_decompositions,
    has_simple_junction_tree,
    has_totally_disconnected_junction_tree,
    heuristic_tree_decomposition,
    is_acyclic,
    is_chordal,
    join_tree,
    junction_tree,
)
from repro.cq.gaifman import gaifman_graph
from repro.cq.homomorphism import count_homomorphisms_via_decomposition
from repro.cq.parser import parse_query
from repro.cq.structures import Structure
from repro.exceptions import DecompositionError
from repro.workloads.generators import clique_query, cycle_query, path_query, star_query

SRC = str(Path(__file__).resolve().parents[2] / "src")


def run_python(code, *args, **env):
    """Run ``code`` with ``args`` in a fresh interpreter on this checkout; return its stdout."""
    environment = dict(os.environ, PYTHONPATH=SRC, **env)
    completed = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=environment,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_gaifman_graph_triangle(triangle_query):
    graph = gaifman_graph(triangle_query)
    assert list(graph) == ["X1", "X2", "X3"]
    assert sum(len(neighbours) for neighbours in graph.values()) == 2 * 3
    assert graph["X1"] == {"X2", "X3"}


def test_gaifman_graph_isolated_variable():
    query = parse_query("R(x, x), S(y, z)")
    graph = gaifman_graph(query)
    assert graph["x"] == frozenset()
    assert graph["y"] == {"z"}


def test_junction_tree_bags_of_path_are_its_edges():
    tree = junction_tree(path_query(3))
    assert len(tree.bags) == 3
    assert all(len(bag) == 2 for bag in tree.bags)


def test_acyclicity_of_families():
    assert is_acyclic(path_query(4))
    assert is_acyclic(star_query(4))
    assert is_acyclic(cycle_query(2))
    assert not is_acyclic(cycle_query(3))
    assert not is_acyclic(cycle_query(5))


def test_acyclicity_single_atom_and_clique_query():
    assert is_acyclic(parse_query("R(x, y, z)"))
    # The clique query has one atom per pair: cyclic for size >= 3.
    assert not is_acyclic(clique_query(3))


def test_join_tree_path(path2_query):
    tree = join_tree(path2_query)
    assert tree.is_valid(path2_query)
    assert tree.is_simple()
    assert set(tree.bags) == {frozenset({"Y1", "Y2"}), frozenset({"Y1", "Y3"})}


def test_join_tree_rejects_cyclic(triangle_query):
    with pytest.raises(DecompositionError):
        join_tree(triangle_query)


def test_chordality():
    assert is_chordal(parse_query("R(x, y, z)"))
    assert is_chordal(triangle := cycle_query(3)) and triangle is not None
    assert not is_chordal(cycle_query(4))
    assert is_chordal(path_query(5))


def test_junction_tree_triangle(triangle_query):
    tree = junction_tree(triangle_query)
    assert tree.is_valid(triangle_query)
    assert tree.bags == (frozenset({"X1", "X2", "X3"}),)
    assert tree.is_junction_tree(triangle_query)


def test_junction_tree_rejects_non_chordal():
    with pytest.raises(DecompositionError):
        junction_tree(cycle_query(4))


def test_simple_junction_tree_detection():
    # Example 3.5's Q2 has the simple junction tree {y1,y3}-{y1,y2}-{y2,y4}.
    q2 = parse_query("A(y1,y2), B(y1,y3), C(y4,y2)")
    assert has_simple_junction_tree(q2)
    # Two triangles glued on an edge share a 2-element separator: not simple.
    glued = parse_query("R(a,b), R(b,c), R(c,a), R(b,d), R(c,d)")
    assert is_chordal(glued)
    assert not has_simple_junction_tree(glued)
    assert not has_simple_junction_tree(cycle_query(4))


def test_totally_disconnected_junction_tree():
    disconnected = parse_query("R(a,b), S(c,d)")
    assert has_totally_disconnected_junction_tree(disconnected)
    assert not has_totally_disconnected_junction_tree(path_query(2))


def test_heuristic_decomposition_covers_cyclic_query():
    query = cycle_query(5)
    decomposition = heuristic_tree_decomposition(query)
    decomposition.validate(query)
    assert decomposition.width() >= 1


def test_candidate_decompositions_deduplicate(path2_query):
    candidates = candidate_tree_decompositions(path2_query)
    signatures = {candidate.signature() for candidate in candidates}
    assert len(signatures) == len(candidates)
    assert all(candidate.is_valid(path2_query) for candidate in candidates)


def test_decomposition_validation_catches_errors(triangle_query):
    bags = (frozenset({"X1", "X2"}), frozenset({"X2", "X3"}))
    # No edge between the two nodes holding X2: running intersection fails.
    assert not TreeDecomposition(bags=bags).is_valid()
    joined = TreeDecomposition(bags=bags, edges=((0, 1),))
    # Coverage fails: the atom R(X3, X1) is in no bag.
    assert joined.is_valid()
    assert not joined.is_valid(triangle_query)
    # Two edges between the same nodes make a cycle.
    assert not TreeDecomposition(bags=bags, edges=((0, 1), (1, 0))).is_valid()
    with pytest.raises(DecompositionError, match="without a bag"):
        TreeDecomposition(bags=bags, edges=((0, 2),)).validate()


def test_rooting_and_atom_assignment(path2_query):
    tree = join_tree(path2_query)
    parents = tree.rooted_parents()
    roots = [node for node, parent in parents.items() if parent is None]
    assert len(roots) == 1
    order = tree.topological_order()
    assert order[0] in roots
    assignment = tree.assign_atoms(path2_query)
    assigned_atoms = [atom for atoms in assignment.values() for atom in atoms]
    assert sorted(map(str, assigned_atoms)) == sorted(map(str, path2_query.atoms))


def test_separators_and_width(path2_query):
    tree = join_tree(path2_query)
    assert tree.separators() == [frozenset({"Y1"})]
    assert tree.width() == 1
    assert tree.all_variables() == frozenset({"Y1", "Y2", "Y3"})


# ---------------------------------------------------------------------- #
# Built once per query, validated once per query
# ---------------------------------------------------------------------- #
def test_structure_is_built_once_per_query(path2_query):
    assert junction_tree(path2_query) is junction_tree(path2_query)
    assert join_tree(path2_query) is join_tree(path2_query)
    query = cycle_query(4)
    assert heuristic_tree_decomposition(query) is heuristic_tree_decomposition(query)


def test_query_pickled_after_junction_tree_unpickles_and_decides(
    triangle_query, path2_query
):
    tree = junction_tree(path2_query)
    restored = pickle.loads(pickle.dumps(path2_query))
    assert restored == path2_query
    assert "decompositions" not in restored.__dict__
    assert junction_tree(restored).signature() == tree.signature()
    result = decide_containment(triangle_query, restored)
    assert result.status is ContainmentStatus.CONTAINED
    assert result.method == "theorem-3.1"


def test_a_decomposition_is_validated_once_per_query(monkeypatch):
    query = parse_query("R(a,b), R(b,c)")
    database = Structure.from_facts([("R", (0, 1)), ("R", (1, 2)), ("R", (1, 0))])
    tree = TreeDecomposition(
        bags=(frozenset("ab"), frozenset("bc")), edges=((0, 1),)
    )
    calls = []
    original = TreeDecomposition.validate

    def counting(self, target=None):
        calls.append(target)
        return original(self, target)

    monkeypatch.setattr(TreeDecomposition, "validate", counting)
    counts = {count_homomorphisms_via_decomposition(query, database, tree) for _ in range(3)}
    assert counts == {3}
    assert calls == [query]
    # A decomposition that fails is checked again on every use.
    broken = TreeDecomposition(bags=(frozenset("ab"), frozenset("bc")))
    for _ in range(2):
        with pytest.raises(DecompositionError):
            count_homomorphisms_via_decomposition(query, database, broken)
    assert len(calls) == 3


# ---------------------------------------------------------------------- #
# The same decompositions in every process
# ---------------------------------------------------------------------- #
#: Non-chordal queries whose Gaifman graph has a component with fewer than
#: half the variables: set-ordered graph code triangulates them differently
#: under different hash salts.
MULTI_COMPONENT_NON_CHORDAL = (
    "R(a,b), R(b,c), R(c,d), R(d,a), R(e,f), R(f,g), R(g,h), R(h,i)",
    "R(p,q), R(q,r), R(r,s), R(s,p), R(t,u), R(u,v), R(v,w), R(w,x), R(x,y), R(y,t)",
    "S(m,n), S(n,o), S(o,k), S(k,m), S(a,b), S(b,c), S(c,d), S(d,e), S(e,a), T(a,c,f)",
)

_DUMP_DECOMPOSITIONS = """
import json, sys
from repro.cq.decompositions import candidate_tree_decompositions
from repro.cq.parser import parse_query
dump = []
for text in json.loads(sys.argv[1]):
    for tree in candidate_tree_decompositions(parse_query(text)):
        dump.append((
            [sorted(tree.bag(node)) for node in tree.nodes],
            sorted(sorted(edge) for edge in tree.edges),
        ))
print(json.dumps(dump))
"""


def test_decompositions_do_not_depend_on_the_hash_salt():
    argument = json.dumps(MULTI_COMPONENT_NON_CHORDAL)
    dumps = {
        salt: run_python(_DUMP_DECOMPOSITIONS, argument, PYTHONHASHSEED=salt)
        for salt in ("0", "2", "5")
    }
    assert len(set(dumps.values())) == 1, dumps


# ---------------------------------------------------------------------- #
# The package needs no graph library
# ---------------------------------------------------------------------- #
def test_the_package_runs_without_networkx():
    output = run_python(
        """
import io, sys
sys.modules["networkx"] = None
import repro
from repro.cli import main
from repro.core.containment import decide_containment
from repro.workloads.generators import cycle_query
from repro.workloads.paper_examples import vee_example
vee = vee_example()
theorem = decide_containment(vee.q1, vee.q2)
general = decide_containment(cycle_query(4), cycle_query(4))
buffer = io.StringIO()
code = main(["inspect", "R(a,b), R(b,c), R(c,d), R(d,a)"], out=buffer)
print(theorem.status.value, theorem.method, general.status.value, general.method, code)
print(buffer.getvalue())
"""
    )
    first, *report = output.splitlines()
    assert first == "contained theorem-3.1 contained sufficient-gamma 0"
    assert "chordal   : False" in report
