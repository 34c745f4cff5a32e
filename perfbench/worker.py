"""One benchmark run in a fresh interpreter.

``run.py`` starts this file with one JSON argument (workload, seed,
seconds, trace, limit, tmp, out).  It sets up like a fresh CLI process
(``import qunimodal`` and ``default_registry()`` with an empty cache
directory), generates the op list from the seed, then runs the ops one
at a time in a closed loop until their summed latency reaches
``seconds`` (or, with ``limit``, exactly the first ``limit`` ops).  Each
op's answer is checked after its timer stops.  Everything measured is
written to ``out`` as JSON.  Between ops the host's speed is sampled
(``speed.py``), and every op time is reported both raw and scaled by
the speed around it.
"""

from __future__ import annotations

import importlib
import json
import math
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import workloads  # noqa: E402

# Rounds generated per second of measuring.  About ten times what the
# library completes at the defining commit, so a faster library still
# has fresh inputs; a run whose list runs out ends early.
ROUNDS_PER_SECOND = {"boxes": 4, "certificates": 10, "kronecker": 250}

# Peak RSS is read when this many rounds are done; a run goes on past
# ``seconds`` until then.  The memo tables grow with every op, so a peak
# taken at the end of the run would grow with the library's speed instead
# of its memory use.  On boxes the peak is set by the transient lists of
# thin12 expansions and moves with the heap's layout; after ten rounds
# five of them have run, and the peak spread half as much from seed to
# seed as after six.
RSS_ROUNDS = {"boxes": 10, "certificates": 12, "kronecker": 300}


def _load_library():
    q = importlib.import_module("qunimodal")
    mod = lambda name: importlib.import_module(f"qunimodal.{name}")  # noqa: E731
    return SimpleNamespace(
        Q=q, QB=mod("qbinomial"), UNI=mod("unimodality"), CERT=mod("certify"),
        LR=mod("lr"), KRON=mod("kronecker"),
    )


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _memo_info(lib, tracing) -> dict:
    out = {}
    for layer, mod_key, attr in tracing.MEMOS:
        info = getattr(getattr(getattr(lib, mod_key), attr, None), "cache_info", None)
        if info is not None:
            ci = info()
            out[layer] = (ci.hits, ci.misses, ci.currsize)
    return out


def main(cfg: dict) -> None:
    tmp = Path(cfg["tmp"])
    tracer = tracing = None
    if cfg["trace"]:
        import tracing
        tracer = tracing.Tracer()

    lib = _load_library()
    if tracer is not None:
        tracer.install(lib)
    lib.CERT.default_registry()

    rounds = math.ceil(cfg["seconds"] * ROUNDS_PER_SECOND[cfg["workload"]])
    ops = workloads.generate(cfg["workload"], cfg["seed"], rounds)
    limit = cfg["limit"]
    if limit is not None:
        ops = ops[:limit]

    memo_totals: dict = {}
    records, failures, op_times = [], [], []
    timed, stage = 0.0, [""]
    host = speed.SpeedLog()
    clock = time.perf_counter
    rss_rounds = RSS_ROUNDS[cfg["workload"]]
    peak_rss_mb = None
    for op_id, (round_no, kind, stratum, params) in enumerate(ops):
        if op_id and round_no != ops[op_id - 1][0]:
            if peak_rss_mb is None and round_no >= rss_rounds:
                peak_rss_mb = _max_rss_mb()
            # measure whole rounds, so every stratum has the same weight
            if limit is None and timed >= cfg["seconds"] and peak_rss_mb is not None:
                break
        if tracer is not None:
            tracer.enabled = False
        if host.due():
            host.sample()
        error, dt, t0 = None, 0.0, clock()
        try:
            stage[0] = "prepare"
            prepared = workloads.prepare(lib, kind, stratum, params, tmp)
            if tracer is not None:
                tracer.enabled, tracer.op_id, tracer.op_kind = True, op_id, kind
                before = _memo_info(lib, tracing)
            t0 = clock()
            try:
                result = workloads.run(lib, kind, params, prepared, stage)
            finally:
                dt = clock() - t0
                if tracer is not None:
                    tracer.enabled = False
                    for layer, (h, m, size) in _memo_info(lib, tracing).items():
                        h0, m0, _ = before.get(layer, (0, 0, 0))
                        th, tm, _ = memo_totals.get(layer, (0, 0, 0))
                        memo_totals[layer] = (th + h - h0, tm + m - m0, size)
        except Exception as exc:  # a failed op is recorded and the run goes on
            error = exc
        timed += dt
        op_times.append((t0, t0 + dt))
        if error is not None:
            status = "error"
        else:
            stage[0] = "answer"
            try:
                status = "ok" if workloads.check(lib, kind, stratum, params, result) else "wrong"
            except Exception as exc:  # an answer that cannot be checked is wrong
                status, error = "wrong", exc
        records.append((f"{kind}/{stratum}", dt, status))
        if status != "ok":
            failures.append({
                "workload": cfg["workload"], "op": op_id, "kind": f"{kind}/{stratum}", "inputs": repr(params),
                "stage": stage[0], "status": status,
                "exception": type(error).__name__ if error is not None else None,
                "message": str(error)[:200] if error is not None else None,
            })

    host.sample()
    scale = [host.factor(t0, t1) for t0, t1 in op_times]
    records = [(label, dt, dt * f, status) for (label, dt, status), f in zip(records, scale)]
    out = {
        "records": records,
        "failures": failures,
        "generated": len(ops),
        "timed_s": timed,
        "scaled_s": sum(r[2] for r in records),
        "speed_factor": host.overall(),
        "speed_samples": list(zip(host.at, host.kernel_s)),
        "op_times": op_times,
        "peak_rss_mb": peak_rss_mb if peak_rss_mb is not None else _max_rss_mb(),
    }
    if tracer is not None:
        tracer.dump(cfg["spans"])
        out["layers"] = {k: dict(v) for k, v in tracer.aggregate().items()}
        out["counts"] = dict(tracer.counts)
        out["memo"] = memo_totals
        out["spans"] = len(tracer.start)
        out["missing_wrap_points"] = tracer.missing
    Path(cfg["out"]).write_text(json.dumps(out))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
