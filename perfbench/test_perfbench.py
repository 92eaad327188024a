"""Self-tests of the benchmark harness (run with pytest from the repo root)."""
import json
import os
import subprocess
import sys

import pytest

from perfbench import cli_pool, inputs, run
from perfbench.oracle import match_roots, oracle_roots
from perfbench.tracer import Tracer

ROOT = run.repo_root()


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_json_line_carries_every_benchmark_metric_with_its_unit():
    spec = _bench_json()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "cli-artifacts", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_declared_metric_names_and_units_match_the_emitters():
    spec = _bench_json()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_JSON)
    assert all(run.UNITS[m["name"]] == m["unit"] for m in spec["end_to_end"])
    assert [m["name"] for m in spec["per_layer"]] == list(run.LAYER_JSON)
    assert all(run.layer_unit(m["name"]) == m["unit"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_oracle_flags_a_removed_root_and_a_spurious_one():
    roots = oracle_roots((1.0, 1.5, 2.0), 20.0, "pt-dirichlet")
    # the golden count on (0, 20]; the double roots sit on the coincident poles 2 pi m
    assert len(roots) == 12 and sum(roots.dip) == 3
    full = match_roots(roots, roots.ks)
    assert full.confirmed == len(roots) and not full.missed and not full.unconfirmed
    dropped = list(roots.ks)
    removed = dropped.pop(7)
    m = match_roots(roots, dropped)
    assert m.missed == (removed,) and not m.unconfirmed
    m = match_roots(roots, list(roots.ks) + [5.0])
    assert m.unconfirmed == (5.0,) and not m.missed


def test_oracle_counts_the_known_close_pairs():
    # dense-scan counts on (0, 40] for the missed-root repro tuples
    assert len(oracle_roots((1.0, 1.0001, 2.0), 40.0, "pt-dirichlet")) == 37
    assert len(oracle_roots((1.0, 1.0001, 2.0), 40.0, "kirchhoff-ref")) == 50
    assert len(oracle_roots((1.0, 1.000001, 1.7), 40.0, "pt-dirichlet")) == 33


def test_digest_check_flags_a_one_byte_change(tmp_path):
    out = tmp_path / "golden.csv"
    spec = cli_pool.CONFIGS["spectrum-golden"]
    env = run.child_env(ROOT)
    subprocess.run(cli_pool.argv_for(spec, str(out)), cwd=ROOT, env=env, check=True, timeout=120)
    recorded = cli_pool.load_digests()["spectrum-golden"]
    assert cli_pool.sha256_file(out) == recorded
    data = bytearray(out.read_bytes())
    data[len(data) // 2] ^= 0x01
    out.write_bytes(bytes(data))
    assert cli_pool.sha256_file(out) != recorded


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_regenerates_identical_inputs(workload):
    gen = inputs.GENERATORS[workload]
    first, again, other = gen(11), gen(11), gen(12)
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)


def test_tracer_patches_bound_names_and_restores_them():
    pg = pytest.importorskip("ptgraph")
    import ptgraph.cli
    import ptgraph.spectral

    original = ptgraph.spectral.find_roots
    tracer = Tracer().install()
    try:
        assert ptgraph.cli.find_roots is not original
        graph = pg.make_star_graph([1.0, 1.3, 1.7])
        basis = pg.build_basis(graph, pg.PT_DIRICHLET, 10.0)
    finally:
        tracer.uninstall()
    assert ptgraph.spectral.find_roots is original and ptgraph.cli.find_roots is original
    summary = tracer.summary()
    assert summary["spectral.build_basis.calls"] == 1
    assert summary["spectral.find_roots.calls"] == 1
    assert summary["spectral.eigenmode.calls"] == len(basis.modes)
    assert summary["spectral.roots.found"] == len(basis.modes) + len(basis.degenerate_roots)
    assert summary["boundary.l2_inner.calls"] == len(basis.modes)
    assert summary["spectral.build_basis.self_s"] >= 0.0


def test_each_op_counts_once_and_fails_when_any_run_failed():
    from perfbench.checks import Tally, tally_inputs

    def failure(rec):
        return None if rec["ok"] else f"{rec['key']} failed"

    once = [{"key": k, "ok": k != 1} for k in range(4)]
    counts = []
    for records in (once, once + once + once[:2], once + [{"key": 3, "ok": False}]):
        tally = Tally()
        tally_inputs(tally, records, failure)
        counts.append((tally.attempted, tally.failed))
    assert counts == [(4, 1), (4, 1), (4, 2)]
