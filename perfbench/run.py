"""The cwseg benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it imports ``cwseg`` from ``src/`` there
and refuses to run without it. Inputs are generated from ``--seed`` in a
child process (``prepare.py``) before anything is timed. ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` measures the
per-layer metrics from spans, writes the spans to
``.perfbench_out/<workload>-seed<N>.spans.jsonl`` and prints the baseline
facts the trace establishes. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. ``failed`` counts
frames whose output differed from the reference, so the frame failure rate
``ops_failed_frac`` is ``failed / attempted``.

``--smoke`` runs every workload at its smallest size in both modes and
checks that every metric named in ``BENCHMARK.json`` is reported with its
unit.

Thread counts are pinned before numpy loads: BLAS to one thread, which
keeps timings steady on a small shared host, and ``CWSEG_THREADS`` (the eval
pool) to the CLI's own default, min(4, CPUs).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def pin_threads() -> dict:
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ["CWSEG_THREADS"] = str(min(4, nproc))
    return {"nproc": nproc, "blas_threads": 1, "cwseg_threads": min(4, nproc)}


def environment(threads: dict) -> dict:
    """Facts about the host that the timings depend on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {**threads, "blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": np.__version__, "python": platform.python_version(),
            "cpu": cpu, "caches": caches}


def prepare(workload: str, seed: int, workdir: Path, smoke: bool) -> dict:
    cmd = [sys.executable, str(HERE / "prepare.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(workdir)] + (["--smoke"] if smoke else [])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"input preparation failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args) -> int:
    threads = pin_threads()
    sys.path.insert(0, str(SRC))
    import measure
    import workloads

    table = workloads.SMOKE if args.smoke_size else workloads.FULL
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    w = table[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        info = prepare(w.name, args.seed, workdir, args.smoke_size)
        print(f"# {w.name}: {w.frames} frames of {w.height}x{w.width}, "
              f"schedule {w.schedule}, seed {args.seed}, theta {info.get('theta')}, "
              f"cut/drift margin {info.get('margin')} after {info.get('draws')} draw(s), "
              f"threads {threads}",
              file=sys.stderr)
        runner = measure.Runner(w, workdir, info)
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"{w.name}-seed{args.seed}.spans.jsonl"
            spans.unlink(missing_ok=True)
            metrics, attempted, failed, notes = measure.traced(runner, args.seconds, spans)
            units = dict(measure.PER_LAYER)
            notes["environment"] = environment(threads)
            print("# baseline facts: " + json.dumps(notes), file=sys.stderr)
        else:
            metrics, attempted, failed = measure.end_to_end(runner, args.seconds)
            units = dict(measure.END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    print(f"{'ops_failed_frac':44s} {failed / attempted:14.6g} "
          f"({failed} of {attempted} frames)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def smoke() -> int:
    """Every workload at its smallest size, both modes; every named metric
    must come back with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--smoke-size"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                problems.append(f"{wl['name']} trace {trace}: exit {proc.returncode}\n"
                                f"{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                problems.append(f"{wl['name']} trace {trace}: outputs incorrect")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{wl['name']} trace {trace}: "
                                    f"{metric['name']} missing or wrong unit")
    print("\n".join(problems) or "smoke: every metric present with its unit")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="check every workload and metric at the smallest size")
    p.add_argument("--smoke-size", action="store_true",
                   help="run one workload at its smallest size")
    args = p.parse_args(argv)
    if not (SRC / "cwseg" / "__init__.py").is_file():
        print(f"error: no cwseg sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed < 0:
        p.error("--workload and a nonnegative --seed are required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
