"""The names the benchmark reaches in the package, checked in the unit suite.

``perfbench`` wraps functions at the module attributes that their callers
look up, runs the CLI handlers through ``cli.main`` and swaps
``cli.break_relators`` to capture each break, and its checks read the
session files that the CLI writes.  A rename that drops one of those names,
or a change to those files, would otherwise show only when the benchmark
itself runs.
"""

import importlib.util
from pathlib import Path
from random import Random

import pytest

from groupshare.smallcancel import random_platform_group, serialize_presentation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer, workloads = _load("tracer"), _load("workloads")


def test_every_traced_binding_resolves(tmp_path):
    grp, out = tmp_path / "g.grp", tmp_path / "g.broken"
    grp.write_text(serialize_presentation(random_platform_group(3, 3, 40, "1/6", Random(1))))
    gs = workloads.load_groupshare()
    t = tracer.Tracer()
    t.install(gs)
    try:
        assert gs["cli"].main(["tietze-break", "--in", str(grp), "--out", str(out)]) == 0
    finally:
        t.disable()
    bound = {(module.__name__.rpartition(".")[2], attr) for module, attr, _, _ in t._patches}
    assert len(t._patches) == 52
    # each traced function where it is defined, and the cli bindings through
    # which the handlers parse and serialize, so that nn-cli's counts see them
    assert {(layer, name) for layer, names in tracer.TRACED.items() for name in names} <= bound
    assert {("cli", name) for name in ("parse_word", "serialize_word", "parse_presentation",
                                       "serialize_presentation")} <= bound
    # main found the traced handler on the module, which called the traced breaker
    spans = [t.names[i] for i in t.name]
    assert spans[:2] == ["cli.tietze_break", "smallcancel.parse_presentation"]
    assert "tietze.break_relators" in spans
    assert all(getattr(module, attr) is original for module, attr, original, _ in t._patches)


def test_tietze_break_calls_the_breaker_bound_on_cli(tmp_path):
    # Break.run swaps cli.break_relators to capture the result it checks
    gs = workloads.load_groupshare()
    cli = gs["cli"]
    grp, out = tmp_path / "g.grp", tmp_path / "g.broken"
    grp.write_text(serialize_presentation(random_platform_group(3, 3, 40, "1/6", Random(2))))
    inner, seen = cli.break_relators, []

    def capture(presentation):
        seen.append(inner(presentation))
        return seen[-1]

    cli.break_relators = capture
    try:
        assert cli.main(["tietze-break", "--in", str(grp), "--out", str(out)]) == 0
    finally:
        cli.break_relators = inner
    assert len(seen) == 1
    assert out.read_text() == gs["tietze"].serialize_breakdown(seen[0])


def test_nn_cli_unwarm_empties_the_dehn_index_cache(tmp_path, platform_group):
    # NnCli.unwarm empties smallcancel's Dehn-index LRU by its private name, so
    # removing or renaming that cache must fail here, not only in the benchmark
    gs = workloads.load_groupshare()
    workload = workloads.NnCli(gs, 1, workloads.SIZES["tiny"]["nn-cli"], tmp_path)
    sc = gs["smallcancel"]
    assert sc.dehn_is_trivial(platform_group, platform_group.relators[0]).is_trivial  # warm it
    assert sc._dehn_index.cache_info().currsize > 0
    workload.unwarm()
    assert sc._dehn_index.cache_info().currsize == 0


@pytest.mark.parametrize("name", ["nn-cli", "tn-stream"])
def test_the_benchmark_checks_what_the_program_writes(tmp_path, name):
    # NnCli.check re-reads the first session's bundles line by line with
    # parse_word, so a slip in the bundle layout must fail here, not only
    # inside the benchmark
    gs = workloads.load_groupshare()
    workload = workloads.WORKLOADS[name](gs, 1, workloads.SIZES["tiny"][name], tmp_path)
    for op, _ in zip(workload.ops(), range(2)):
        _, output = workload.run(op)
        assert workload.check(op, output) is None
