"""The operator table is the one place an operator is declared.

Every layer that needs a per-operator fact (spec parameters, pruner
factory, P4 emitter, routing key, scale law, served-path encoding)
reads :data:`repro.switch.operators.OPERATORS`; no other module
branches on an operator's name.
"""

import ast
import pathlib

import pytest

from repro.db.planner import QueryPlanner
from repro.db.queries import (
    DistinctQuery,
    FilterQuery,
    GroupByQuery,
    HavingQuery,
    JoinQuery,
    Query,
    SkylineQuery,
    TopNQuery,
)
from repro.switch.compiler import QueryCompiler
from repro.switch.operators import OPERATORS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
TABLE_MODULE = SRC / "switch" / "operators.py"

OPERATOR_NAMES = {"filter", "distinct", "topn", "skyline", "groupby",
                  "join", "having"}

#: Dicts keyed by names that collide with operator names but are not
#: operator dispatch: scenario names, and the calibrated per-op rates of
#: the cost models.  (module path relative to src/repro, assigned name)
#: A dict with a single such key (a result row's column) is no dispatch.
OUT_OF_SCOPE = {
    ("cluster/simulation.py", "SCENARIOS"),
    ("cluster/costmodel.py", "master_rate"),
    ("cluster/costmodel.py", "spark_rate"),
    ("baselines/netaccel.py", "switch_cpu_rate"),
    ("baselines/netaccel.py", "server_rate"),
}


def _names_operator(node) -> bool:
    if isinstance(node, ast.Constant):
        return node.value in OPERATOR_NAMES
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_operator(elt) for elt in node.elts)
    return False


def _assigned_name(node):
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target])
    for target in targets:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            return target.attr
    return None


def _violations(relative: str, source: str):
    tree = ast.parse(source)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                (relative, _assigned_name(node)) in OUT_OF_SCOPE:
            exempt.update(id(sub) for sub in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Compare) and any(
                _names_operator(side)
                for side in [node.left, *node.comparators]):
            found.append(f"{relative}:{node.lineno} compares an operator "
                         "name")
        elif isinstance(node, ast.Dict) and sum(
                key is not None and _names_operator(key)
                for key in node.keys) >= 2:
            found.append(f"{relative}:{node.lineno} keys a dict by "
                         "operator names")
    return found


def test_no_module_outside_the_table_dispatches_on_an_operator_name():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path != TABLE_MODULE:
            found.extend(_violations(path.relative_to(SRC).as_posix(),
                                     path.read_text()))
    assert found == []


def test_the_scan_sees_a_dispatch():
    source = ('if op in ("topn", "skyline"):\n    pass\n'
              'if query_type == "join":\n    pass\n'
              'HANDLERS = {"join": 1, "having": 2}\n'
              'ROW = {"w": 1, "groupby": 0.5}\n'
              'SCENARIOS = {"join": 1, "topn": 2}\n')
    found = _violations("cluster/simulation.py", source)
    assert [line.split(" ", 1)[0] for line in found] == [
        "cluster/simulation.py:1", "cluster/simulation.py:3",
        "cluster/simulation.py:5"]


def test_the_table_is_the_compiled_operator_set():
    assert set(OPERATORS) == set(QueryCompiler().supported_types())
    assert set(OPERATORS) == OPERATOR_NAMES
    for name, operator in OPERATORS.items():
        assert operator.name == name


def test_every_query_class_has_a_record():
    classes = (FilterQuery, DistinctQuery, TopNQuery, SkylineQuery,
               GroupByQuery, JoinQuery, HavingQuery)
    assert {cls.query_type for cls in classes} == set(OPERATORS)
    assert Query.query_type not in OPERATORS


def test_a_record_serves_or_names_its_driver():
    from repro.cluster.simulation import ClusterSimulation

    for operator in OPERATORS.values():
        if operator.multi_pass is not None:
            assert callable(getattr(ClusterSimulation, operator.multi_pass))
        assert operator.scale_law in ("log", "tail", "linear")


@pytest.mark.parametrize("query", [
    DistinctQuery(key_columns=("k",)),
    GroupByQuery(key_column="k", value_column="v"),
    JoinQuery(left_table="L", right_table="R", left_key="a",
              right_key="b"),
], ids=lambda q: q.query_type)
def test_planner_and_compiler_read_one_default(query):
    """A scaled structure dimension is the table default under scale."""
    operator = OPERATORS[query.query_type]
    scale = 0.5
    spec = QueryPlanner(structure_scale=scale).spec(query)
    for name, value in spec.params:
        if name in ("d", "M_bits"):
            assert value == round(operator.defaults[name] * scale)
    full = QueryPlanner().spec(query).params_dict()
    for name in ("d", "M_bits"):
        if name in full:
            assert full[name] == operator.defaults[name]
