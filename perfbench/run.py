"""Benchmark of the qunimodal library: one command, three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload boxes --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

* ``boxes``: ``check_strict`` on distinct near-square and thin boxes, so
  every expansion misses the ``gaussian`` memo; ``qbinomial`` does
  nearly all the work.
* ``certificates``: certificate round trips through a file, ``classify``
  above the direct bound, and verification of forged foreign
  certificates; ``certify`` and the leaf checks do the work.
* ``kronecker``: the two routes to a two-row Kronecker coefficient, and
  semigroup sampling; ``partitions``, ``lr`` and ``kronecker`` do the work.

The library runs in a child interpreter (``worker.py``), one op at a time
in a closed loop: one process, one thread, the next op only after the
previous one returned.  All timing is taken by the benchmark around the
library's public functions.  Each run gets its own temporary directory
under ``.perfbench/`` in the checkout; the registry cache
(``QUNIMODAL_CACHE_DIR``) and the round-trip files go there, and it is
removed when the run ends.  Children write no byte code.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: interpreter start through ``import qunimodal`` and
  ``default_registry()`` with an empty cache directory, median of
  several fresh interpreters;
* ``ops_per_s``: ops answered correctly per second of timed op time;
* ``op_p50_ms`` and ``op_p90_ms``: op latency percentiles (nearest
  rank), where a failed op ranks above every successful one;
* ``ops_ok_frac``: share of attempted ops answered correctly;
* ``peak_rss_mb``: peak resident set of the child that ran the ops,
  read after a fixed number of rounds (see ``worker.RSS_ROUNDS``).

Every time above is scaled by the host's speed around it (``speed.py``):
it is in the seconds of a host where a fixed calibration loop takes
``speed.REF_KERNEL_S``, so that two runs of the same code agree although
the shared host they ran on changed speed in between.  The run and its
children stay on one CPU, the one whose speed the loop samples.  Raw
times are printed beside the scaled ones and kept in the result file.

With ``--trace 1`` it runs the same workload twice in fresh children:
untraced for ``--seconds``, then traced over exactly the same ops, and
reports the per-layer metrics of ``tracing.LAYER_METRICS`` plus the
tracing overhead (traced minus untraced time of those ops).  Layer
times are scaled by the traced run's median host speed.  Spans, in raw
time, are written to ``.perfbench/results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed op
(an exception or a wrong answer) never stops the run; failures are
listed by kind above that line and in the result file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 15
# A run must end within 180 s, so children get what is left of this.
RUN_BUDGET_S = 170.0

_SETUP_CHILD = "import qunimodal, time; qunimodal.default_registry(); print(time.monotonic())"


def _stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qunimodal").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    rev = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
    }


def _env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        QUNIMODAL_CACHE_DIR=str(cache_dir),
    )
    return env


def _run_child(cmd: list, env: dict, deadline: float) -> str:
    """Run a child to completion within the deadline; return its stdout."""
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"perfbench: child exceeded the run budget: {cmd[1]}")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: child failed with exit code {proc.returncode}: {cmd[1]}")
    return out


def _measure_setup(tmp: Path, deadline: float) -> tuple[list, list]:
    """Seconds from spawning a fresh interpreter to default_registry()
    returning, each with an empty cache directory, raw and scaled by the
    host's speed sampled between launches.  The first launch only warms
    the file cache and is not counted."""
    host = speed.SpeedLog()
    launches = []
    for i in range(SETUP_LAUNCHES + 1):
        host.sample()
        env = _env(tmp / f"setup-cache-{i}")
        t0 = time.monotonic()
        p0 = time.perf_counter()
        ready = float(_run_child([sys.executable, "-c", _SETUP_CHILD], env, deadline).split()[-1])
        if i:
            launches.append((ready - t0, p0))
    host.sample()
    raw = [dt for dt, _ in launches]
    return raw, [dt * host.factor(p0, p0 + dt) for dt, p0 in launches]


def _run_worker(args, tmp: Path, trace: bool, limit, deadline: float) -> dict:
    run_dir = tmp / f"run-{int(trace)}"
    run_dir.mkdir()
    cfg = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "limit": limit, "tmp": str(run_dir),
        "out": str(run_dir / "worker.json"),
        "spans": str(WORK / "results" / f"spans-{args.workload}-seed{args.seed}.json.gz"),
    }
    env = _env(run_dir / "cache")
    _run_child([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)], env, deadline)
    return json.loads(Path(cfg["out"]).read_text())


def _nearest_rank(sorted_values: list, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _end_to_end(res: dict, setup: list) -> dict:
    """The end-to-end metrics, from scaled times."""
    records = res["records"]
    ok = sum(1 for *_, status in records if status == "ok")
    ranked = sorted(((status != "ok", dt) for _, _, dt, status in records))
    return {
        "ops_per_s": (ok / res["scaled_s"], "1/s"),
        "op_p50_ms": (_nearest_rank(ranked, 0.5)[1] * 1e3, "ms"),
        "op_p90_ms": (_nearest_rank(ranked, 0.9)[1] * 1e3, "ms"),
        "ops_ok_frac": (ok / len(records), "fraction"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def _summary(res: dict) -> list:
    lines = [f"host speed: {len(res['records'])} ops, {len(res['speed_samples'])} speed samples, "
             f"median scale {res['speed_factor']:.4f}; raw {res['timed_s']:.3f} s, scaled {res['scaled_s']:.3f} s",
             "ops by kind/stratum: count, median latency raw / scaled"]
    by_stratum: dict = {}
    for label, raw, dt, _ in res["records"]:
        by_stratum.setdefault(label, []).append((raw, dt))
    for label, dts in sorted(by_stratum.items(), key=lambda kv: statistics.median(d for _, d in kv[1])):
        raw = statistics.median(r for r, _ in dts)
        scaled = statistics.median(d for _, d in dts)
        lines.append(f"  {label}: {len(dts)}, {raw * 1e3:.3f} / {scaled * 1e3:.3f} ms")
    by_kind = Counter((f["kind"], f["stage"], f["status"], f["exception"]) for f in res["failures"])
    for (kind, stage, status, exc), n in sorted(by_kind.items(), key=str):
        lines.append(f"failed: {n} x {kind} at {stage}: {status} {exc or ''}".rstrip())
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qunimodal" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC / 'qunimodal'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    speed.pin_to_one_cpu()
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        stamp = _stamp()
        if args.trace:
            base = _run_worker(args, tmp, False, None, deadline)
            res = _run_worker(args, tmp, True, len(base["records"]), deadline)
            overhead = res["scaled_s"] - base["scaled_s"]
            layers = {name: {k: v * res["speed_factor"] if k.endswith("_s") else v for k, v in st.items()}
                      for name, st in res["layers"].items()}
            values = tracing.layer_metrics(layers, Counter(res["counts"]), res["memo"], overhead, base["scaled_s"])
            units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
            metrics = {name: (values[name], units[name]) for name in units}
        else:
            setup_raw, setup = _measure_setup(tmp, deadline)
            res = _run_worker(args, tmp, False, None, deadline)
            metrics = _end_to_end(res, setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    records = res["records"]
    wrong = sum(1 for *_, status in records if status == "wrong")
    result = {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": sum(1 for *_, status in records if status != "ok"),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    detail = {"stamp": stamp, "args": vars(args), "result": result, "failures": res["failures"]}
    if args.trace:
        detail.update(spans=res["spans"], untraced_s=base["timed_s"], traced_s=res["timed_s"],
                      untraced_scaled_s=base["scaled_s"], traced_scaled_s=res["scaled_s"],
                      missing_wrap_points=res["missing_wrap_points"])
    else:
        detail.update(setup_raw_s=setup_raw, setup_scaled_s=setup, records=records,
                      speed_samples=res["speed_samples"], op_times=res["op_times"])
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))

    print("machine: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"workload {args.workload}, seed {args.seed}, {len(records)} ops")
    for line in _summary(res):
        print(line)
    if args.trace:
        print(f"spans: {res['spans']}; untraced {base['scaled_s']:.3f} s, traced {res['scaled_s']:.3f} s (scaled)")
        for name, unit, _, moves, on in tracing.LAYER_METRICS:
            print(f"  {name} = {values[name]:.6g} {unit}    moves {moves} on {on}")
        for point in res["missing_wrap_points"]:
            print(f"  not traced (absent in this version): {point}")
    else:
        print(f"setup raw: median {statistics.median(setup_raw):.4f} s of {len(setup_raw)} launches")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
