"""xferad benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload {pretrain,ovr,score} --seed N --seconds S --trace {0,1}

Run it from anywhere; it uses the xferad sources under src/ of the checkout
that holds this file, and writes only under .perfbench-runs/ there.

A run sets the workload up several times, each in a fresh process and
directory (set-up time is their median; their outputs must be
byte-identical). It then drives xferad.cli.main in-process from the first
set-up directory: one untimed warm-up round, whose outputs are the
reference, then timed rounds until --seconds have passed. Each CLI
invocation is one operation. It fails if it exits non-zero, if its
outputs differ byte-wise from the warm-up's, or if the round's mean AUC
falls below the workload's floor.

The speed of a small shared machine drifts by tens of percent over
seconds to minutes. So every timed unit (a set-up, a round) is bracketed
by calibrate.probe(), a fixed piece of xferad-independent work, and the
reported times are median wall times rescaled to the probe's reference
speed by the median probe time. Raw wall and probe times are kept in
result.json.

With --trace 0 the last stdout line reports the end-to-end metrics. With
--trace 1 rounds alternate untraced and traced, and it reports the
per-layer metrics of the traced rounds plus the tracing overhead; spans
go to .perfbench-runs/<run>/spans.jsonl.
"""

import os

# One BLAS thread: at or below nproc everywhere, and steadier from run to
# run than several on a small shared machine. Must precede numpy's import.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import calibrate  # noqa: E402
import numpy  # noqa: E402
import workloads  # noqa: E402
from tracer import SETUP_METRICS, Tracer, per_layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set up at least SETUP_MIN_REPS times and until SETUP_MIN_S seconds have
# been spent, so a short set-up still gives a steady median
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 9
SETUP_MIN_S = 6.0
SETUP_TIMEOUT_S = 45


class _Sink:
    """Swallows the CLI's progress output so stdout ends with the result line."""

    def write(self, s):
        return len(s)

    def flush(self):
        pass


def _call(cli_main, argv):
    """Exit code of one CLI invocation; an uncaught exception is a failure."""
    try:
        with contextlib.redirect_stdout(_Sink()):
            return cli_main(argv)
    except SystemExit as e:  # argparse usage errors
        return e.code
    except Exception:
        traceback.print_exc()
        return "uncaught exception"


def _tree_digest(path):
    h = hashlib.sha256()
    for f in sorted(p for p in Path(path).rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def _env_stamp(args):
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                       platform.processor())
    except OSError:
        cpu = platform.processor()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": int(BLAS_THREADS)},
    }


def _measured(fn):
    """(fn's result, {"wall": its wall seconds, "probe": machine-speed probe
    seconds, the mean of one probe just before and one just after})."""
    before = calibrate.probe()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    after = calibrate.probe()
    return result, {"wall": wall, "probe": (before + after) / 2}


def _normalized(samples):
    """Median wall seconds rescaled to the probe's reference speed by the
    median probe: on this benchmark's runs a ratio of medians spread less
    from run to run than the median of per-unit ratios."""
    walls = median(x["wall"] for x in samples)
    return walls * calibrate.REFERENCE_S / median(x["probe"] for x in samples)


def _parse_args(workload_names):
    p = argparse.ArgumentParser(description="xferad benchmark (one workload, one seed)")
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args()


def _set_up(args, wl, run_dir):
    """Fresh-process set-ups; returns (samples, digests, traced metrics)."""
    samples, digests, traced = [], [], []
    k = 0
    while k < SETUP_MIN_REPS or (sum(x["wall"] for x in samples) < SETUP_MIN_S
                                 and k < SETUP_MAX_REPS):
        d = run_dir / f"setup{k}"
        d.mkdir()
        cmd = [sys.executable, str(HERE / "prepare.py"),
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.trace:
            cmd += ["--trace-out", str(run_dir / f"setup{k}-metrics.json")]
        proc, sample = _measured(lambda: subprocess.run(cmd, cwd=d, timeout=SETUP_TIMEOUT_S))
        samples.append(sample)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up {k} exited {proc.returncode}")
        digests.append(_tree_digest(d))
        if args.trace:
            traced.append(json.loads((run_dir / f"setup{k}-metrics.json").read_text()))
        k += 1
    return samples, digests, traced


def main():
    if not (ROOT / "src" / "xferad" / "__init__.py").is_file():
        print(f"error: no xferad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from xferad.cli import main as cli_main

    args = _parse_args(sorted(workloads.WORKLOADS))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.build(args.workload, args.seed)
    stamp = _env_stamp(args)
    print("env " + json.dumps(stamp), flush=True)

    run_dir = ROOT / ".perfbench-runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_samples, setup_digests, setup_traced = _set_up(args, wl, run_dir)
    attempted = len(setup_samples) * len(wl.setup)
    failed = sum(len(wl.setup) for d in setup_digests if d != setup_digests[0])

    os.chdir(run_dir / "setup0")
    tracer = Tracer() if args.trace else None
    reference = {}
    walls = {False: [], True: []}
    aucs = []

    def run_round(idx, traced):
        nonlocal attempted, failed
        for inv in wl.round:
            shutil.rmtree(inv.out, ignore_errors=True)
            os.makedirs(inv.out)
        if traced:
            tracer.install()

        def invoke_all():
            codes = []
            for inv in wl.round:
                if traced:
                    tracer.tag = f"round{idx}/{inv.name}"
                codes.append(_call(cli_main, inv.argv))
            return codes

        codes, sample = _measured(invoke_all)
        if traced:
            tracer.uninstall()

        ok = [code == 0 for code in codes]
        for j, inv in enumerate(wl.round):
            digest = _tree_digest(inv.out)
            reference.setdefault(inv.name, digest)
            if digest != reference[inv.name]:
                print(f"round {idx}: {inv.name} outputs differ from the warm-up round",
                      file=sys.stderr)
                ok[j] = False
        try:
            auc = wl.auc()
        except Exception:
            traceback.print_exc()
            auc = 0.0
        if not auc >= wl.auc_floor:
            print(f"round {idx}: mean AUC {auc} below floor {wl.auc_floor}", file=sys.stderr)
            ok = [False] * len(ok)
        attempted += len(ok)
        failed += ok.count(False)
        aucs.append(auc)
        print(f"round {idx} {'traced' if traced else 'untraced'} wall {sample['wall']:.4f} s "
              f"probe {sample['probe']:.4f} s auc {auc:.6f} exit codes {codes}", flush=True)
        return sample

    calibrate.probe()  # its own first call pays one-time costs
    run_round(0, traced=False)  # warm-up: fills caches, defines the reference outputs
    deadline = time.perf_counter() + args.seconds
    idx = 1
    while (time.perf_counter() < deadline or not walls[False]
           or (args.trace and not walls[True])):
        traced = bool(args.trace) and idx % 2 == 0
        walls[traced].append(run_round(idx, traced))
        idx += 1
    os.chdir(ROOT)

    if args.trace:
        metrics = per_layer_metrics(tracer.spans, len(walls[True]))
        for name in SETUP_METRICS:
            metrics[name] = (median(t[name] for t in setup_traced), metrics[name][1])
        metrics["trace.overhead_s"] = (_normalized(walls[True]) - _normalized(walls[False]), "s")
        tracer.write_jsonl(run_dir / "spans.jsonl")
        wanted = spec["per_layer"]
    else:
        wall_s = _normalized(walls[False])
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (_normalized(setup_samples), "s"),
            "samples_per_s": (wl.samples / wall_s, "1/s"),
            "auc_mean": (min(aucs), "auc"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        wanted = spec["end_to_end"]
    if {m["name"]: m["unit"] for m in wanted} != {k: u for k, (_v, u) in metrics.items()}:
        raise RuntimeError("reported metrics do not match BENCHMARK.json")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps({
        "env": stamp, "setup": setup_samples, "setup_digest": setup_digests[0],
        "rounds": {"untraced": walls[False], "traced": walls[True]},
        "output_digests": reference, "result": result,
    }, indent=2) + "\n")
    for k in range(len(setup_samples)):
        shutil.rmtree(run_dir / f"setup{k}")
    # equal for a traced and an untraced run of the same workload and seed
    combined = hashlib.sha256(json.dumps(reference, sort_keys=True).encode()).hexdigest()
    print(f"outputs sha256 {combined}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
