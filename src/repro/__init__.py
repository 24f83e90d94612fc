"""Cheetah: Accelerating Database Queries with Switch Pruning — reproduction.

A full Python reproduction of the SIGCOMM 2019 paper (arXiv:2004.05076)
by Tirmazi, Ben Basat, Gao and Yu: query **pruning** on programmable
switches, with every substrate simulated — the PISA switch pipeline, the
mini SQL engine, the CWorker/CMaster protocol, and the evaluation
workloads.

Package map
-----------

``repro.core``
    The paper's contribution: pruning algorithms for filtering,
    DISTINCT, TOP-N, GROUP BY, JOIN, HAVING and SKYLINE, their
    theorem-driven configuration, and multi-query packing.
``repro.switch``
    PISA switch simulator: stages, ALUs, registers, tables, TCAM log
    approximation, query compiler and control plane.
``repro.sketches``
    Bloom filters, Count-Min, the d x w cache matrix, fingerprints.
``repro.db``
    Columnar tables, expression AST, query objects, reference executor,
    query planner, and a small SQL parser.
``repro.net``
    Cheetah packet formats and the switch-assisted reliability protocol,
    whose ``MasterEndpoint`` is the CMaster.
``repro.cluster``
    The CWorker encoding, the Spark baseline, the calibrated
    completion-time model, and the serving stack.
``repro.workloads``
    Synthetic Big Data benchmark and TPC-H subset generators.
``repro.baselines``
    NetAccel lower-bound model and the OPT streaming pruner.
``repro.bench``
    One experiment per table/figure of the paper's evaluation.
``repro.api``
    The stable public facade (``Session``, ``submit``,
    ``QueryResult``, ``ServeConfig``) — the supported surface for
    application code, covering both in-process and socket serving.
``repro.serving``
    The asyncio TCP frontend: ``ReproServer``/``ReproClient`` speaking
    the versioned ``proto/v1`` wire protocol (docs/PROTOCOL.md).

Quick start
-----------

>>> from repro.db import Table, parse_sql, execute, QueryPlanner
>>> t = Table.from_rows("Products", [
...     {"name": "Burger", "seller": "McCheetah", "price": 4},
...     {"name": "Pizza", "seller": "Papizza", "price": 7},
...     {"name": "Fries", "seller": "McCheetah", "price": 2},
... ])
>>> query = parse_sql("SELECT DISTINCT seller FROM Products")
>>> run = QueryPlanner().plan(query).run(t)
>>> run.result == execute(query, t)
True
"""

import logging as _logging

__version__ = "1.0.0"

# Library convention (docs/OBSERVABILITY.md): every module logs to the
# ``repro.*`` hierarchy, and the package root gets a NullHandler so an
# embedding application that never configures logging sees *nothing*
# on stderr — not even ``lastResort`` output.  ``repro --log-level``
# attaches a real handler for CLI runs.
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

__all__ = ["__version__"]
