"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench -q

They run the real entry point (perfbench/run.py) and check: every metric
prints with its name and unit; a planted output defect is counted as
failed; no process the benchmark started survives a normal exit, an
exception, SIGTERM or SIGINT; a directory without the package fails without a
result; the same seed gives the same engine outputs twice.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

from perfbench import WORKLOAD_NAMES, procscan
from perfbench import reference as ref
from perfbench.metrics import spec

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "perfbench/run.py"]


def bench_run(*args, cwd=ROOT, timeout=170):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def tagged_anywhere() -> list[int]:
    """Live processes carrying any benchmark run tag."""
    needle = f"{procscan.TAG_VAR}=".encode()
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as f:
                env = f.read().split(b"\0")
            with open(f"/proc/{name}/stat", "rb") as f:
                state = f.read().rsplit(b")", 1)[1].split()[0]
        except OSError:
            continue
        if state not in (b"Z", b"X") and any(e.startswith(needle) for e in env):
            out.append(int(name))
    return out


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_name_and_unit(trace, kind):
    res = result_of(bench_run("--workload", "crawl-broad", "--seed", "3", "--seconds", "1",
                              "--trace", str(trace), "--scale", "tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec(kind)
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())
    if trace:
        assert res["metrics"]["failed_ratio"]["value"] == 0.0
        assert res["metrics"]["trace.overhead_ratio"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in res["metrics"].values())
    assert tagged_anywhere() == []


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_planted_defect_is_counted_as_failed(workload):
    res = result_of(bench_run("--workload", workload, "--seed", "5", "--seconds", "1",
                              "--trace", "1", "--scale", "tiny", "--perturb"))
    assert res["correct"] is False and res["failed"] > 0
    assert res["metrics"]["failed_ratio"]["value"] > 0
    assert tagged_anywhere() == []


def test_no_survivors_after_exception():
    proc = bench_run("--workload", "crawl-broad", "--seed", "1", "--seconds", "1",
                     "--scale", "tiny", "--fail", "raise")
    assert proc.returncode != 0 and proc.stdout.strip() == ""
    assert "failure requested" in proc.stderr
    assert tagged_anywhere() == []


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT])
def test_no_survivors_after_signal(sig):
    proc = subprocess.Popen(RUN + ["--workload", "crawl-polite", "--seed", "1", "--seconds", "1",
                                   "--scale", "tiny", "--fail", "hang"],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 120
        while len(tagged_anywhere()) < 4:  # driver, GCS, raylet, workers are up
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.5)
        time.sleep(2)
        proc.send_signal(sig)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 128 + sig and out.strip() == ""
    assert tagged_anywhere() == []


def test_fails_without_result_when_the_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("--workload", "crawl-broad", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


# ---- references, without Ray

def test_claim_reference_and_comparison():
    rounds = [(np.array([5, 3, 5, 9], dtype=np.uint64), np.array([4, 1, 2, 3])),
              (np.array([3, 7, 7], dtype=np.uint64), np.array([0, 6, 5]))]
    win = ref.claim_winners(rounds)
    assert [dict(zip(k.tolist(), p.tolist())) for k, p in win] == [{3: 1, 5: 2, 9: 3}, {7: 5}]
    assert ref.compare_claims(win, win) == (4, 0, 0)
    twice = [win[0], (np.append(win[1][0], 3), np.append(win[1][1], 0))]
    assert ref.compare_claims(twice, win)[1] == 2  # admitted twice, and not a winner
    wrong = [win[0], (win[1][0], win[1][1] + 1)]
    assert ref.compare_claims(wrong, win)[1] == 1
    # a lost winner is a false positive of the approximate filter: one is
    # within the nominal-FPR allowance here, two are failures
    assert ref.compare_claims([(win[0][0][:2], win[0][1][:2]), win[1]], win) == (4, 0, 1)
    assert ref.compare_claims([(win[0][0][:1], win[0][1][:1]), win[1]], win) == (4, 2, 2)


def test_crawl_comparison_counts_each_wrong_row():
    docs = {"a": (("text", "x", "", 0),), "b": (("link", "", "u", 0),)}
    results = [("f1", "000001.jpg", 1, 2), ("f2", "000002.png", 3, 4)]
    assert ref.compare_crawl(docs, results, docs, results) == (4, 0)
    assert ref.compare_crawl({"a": docs["a"]}, results[:1], docs, results) == (4, 2)
    assert ref.compare_crawl(docs, results[::-1], docs, results) == (4, 2)


def test_dedup_comparison_allows_lsh_misses_only_in_lsh_groups():
    import pandas as pd

    from perfbench.workloads import DedupStage

    texts, sources, cluster_of = DedupStage.make_corpus(3, 3000, 600, 10)
    members: dict[int, list[int]] = {}
    for i, c in enumerate(cluster_of.tolist()):
        members.setdefault(c, []).append(i)
    planted = sorted((ids[x], ids[y]) for ids in members.values()
                     for x in range(len(ids)) for y in range(x + 1, len(ids)))

    def engine(pairs):
        """Pairs with their Jaccard, and components keyed by their min id."""
        comp = {}
        for a, b in pairs:
            ca, cb = comp.get(a, a), comp.get(b, b)
            lo = min(ca, cb)
            for k, v in list(comp.items()):
                if v in (ca, cb):
                    comp[k] = lo
            comp[a] = comp[b] = lo
        df = pd.DataFrame({"a": [a for a, _ in pairs], "b": [b for _, b in pairs],
                           "jaccard": [round(ref.word_jaccard(texts[a], texts[b]), 6)
                                       for a, b in pairs]})
        return df, pd.DataFrame({"node": list(comp), "component": list(comp.values())})

    def check(pairs, lsh=frozenset({"hot"})):
        return ref.compare_dedup(*engine(pairs), texts, sources, cluster_of, 0.6, lsh)[1]

    hot = [p for p in planted if sources[p[0]] == "hot"]
    cold = [p for p in planted if sources[p[0]] != "hot"]
    assert len(hot) > 1 / ref.LSH_MAX_MISS and cold
    assert check(planted) == 0
    assert check([p for p in planted if p != hot[0]]) == 0  # one LSH miss: recall only
    assert check([p for p in planted if p != hot[0]], lsh=frozenset()) > 0
    assert check([p for p in planted if p != cold[0]]) > 0  # the exact path missed one
    assert check([p for p in planted if p not in hot[:len(hot) // 10]]) > 0


def test_doc_span_columns_match_the_oracle_only_when_every_span_does():
    from icrawler_ray.schemas import SPAN_STRUCT

    oracle = [{"doc_id": "b", "spans": [{"kind": "link", "text": "", "media_ref": "u",
                                         "offset": 0}]},
              {"doc_id": "a", "spans": [{"kind": "text", "text": "x", "media_ref": "",
                                         "offset": 0},
                                        {"kind": "text", "text": "y", "media_ref": "",
                                         "offset": 1}]}]

    def engine(docs):
        return [pa.table({"doc_id": [d["doc_id"] for d in docs],
                          "spans": pa.array([d["spans"] for d in docs],
                                            type=pa.list_(SPAN_STRUCT))})]

    cols = ref.doc_span_columns(engine(oracle[::-1]))
    assert ref.columns_equal(cols, ref.doc_span_columns_from_oracle(oracle, cols))
    wrong = [oracle[0], {"doc_id": "a", "spans": oracle[1]["spans"][::-1]}]
    assert not ref.columns_equal(ref.doc_span_columns(engine(wrong)),
                                 ref.doc_span_columns_from_oracle(oracle, cols))
    assert not ref.columns_equal(ref.doc_span_columns(engine(oracle[:1])),
                                 ref.doc_span_columns_from_oracle(oracle, cols))


def test_inputs_depend_only_on_the_seed():
    from perfbench.workloads import ClaimsStage, DedupStage

    a, b = ClaimsStage.make_rounds(7, 3, 1000), ClaimsStage.make_rounds(7, 3, 1000)
    assert all((x[0] == y[0]).all() and (x[1] == y[1]).all() for x, y in zip(a, b))
    assert DedupStage.make_corpus(7, 50, 50, 5)[0] == DedupStage.make_corpus(7, 50, 50, 5)[0]
    assert DedupStage.make_corpus(7, 50, 50, 5)[0] != DedupStage.make_corpus(8, 50, 50, 5)[0]


# ---- engine determinism, in-process Ray

@pytest.fixture(scope="module")
def ray_session():
    import ray

    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=256 * 2 ** 20)
    try:
        yield
    finally:
        ray.shutdown()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_same_seed_gives_identical_engine_outputs(ray_session, tmp_path, workload):
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    outputs = []
    for _ in range(2):
        wl = WORKLOADS[workload](11, "tiny", 2, str(tmp_path))
        wl.generate()
        out = wl.job(Tracer(False, "t"))
        assert wl.check(out)[1] == 0
        outputs.append([ref.doc_spans_from_tables(wl._last_tables[0]),
                        ref.results_from_tables(wl._last_tables[1])])
        wl.release(out)
    assert outputs[0] == outputs[1]


def test_same_seed_gives_identical_claim_winners(ray_session):
    from perfbench.trace import Tracer
    from perfbench.workloads import ClaimsStage

    stage = ClaimsStage(11, "tiny", 2)
    outputs = []
    for _ in range(2):
        rounds = stage.make_rounds(11, stage.n_rounds, stage.per_round)
        got, _ = stage.claim(Tracer(False, "t"), rounds)
        assert ref.compare_claims(got, ref.claim_winners(rounds))[1] == 0
        outputs.append([(k.tolist(), p.tolist()) for k, p in got])
    assert outputs[0] == outputs[1]
