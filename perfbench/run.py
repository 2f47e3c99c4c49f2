"""pageseq benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload seq-train --seed 1 --seconds 30 --trace 0

Workloads: cnn-train, seq-train, predict-long, or ``all``, which runs
each of them in a fresh process.  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it prints per-layer metrics from
spans around the ``pageseq`` functions (see tracer.py).  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  A failed output check gives exit code 1; a
checkout without ``src/pageseq`` gives exit code 2.

BLAS and ``PAGESEQ_THREADS`` are pinned to one thread before numpy is
imported, so that runs stay bit-exact and a second core is left for
noise.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("PAGESEQ_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("cnn-train", "seq-train", "predict-long")
# Modules that import numpy (workloads, tracer, pageseq) are imported
# inside functions, after pin_threads().

MIN_ITERATIONS = 2  # two training rounds check that training repeats
MIN_SETUPS = 3
SETUP_SECONDS = 5
LABEL_SECONDS = 1
MIN_REQUESTS = 100  # so that >= 10 latencies lie beyond the 90th percentile
FIXTURE_JSON = "fixture.json"


def pin_threads():
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pinning")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Puts the checkout's src/ first on the path and checks pageseq."""
    if not (SRC / "pageseq" / "__init__.py").is_file():
        print(f"no pageseq sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import pageseq
    if Path(pageseq.__file__).resolve().parent != SRC / "pageseq":
        print(f"imported pageseq from {pageseq.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=30).stdout.strip()
    except OSError:
        describe = ""
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "git_describe": describe or "unavailable"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Checks and operation counts of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr)


# ------------------------------------------------------------------ phases

def label_pass(workload, setup, models, latencies):
    outputs = []
    for lawsuit in setup.requests:
        start = time.perf_counter()
        outputs.append(workload.label(models, lawsuit))
        latencies.append(time.perf_counter() - start)
    return outputs


def make_fixture(seed, workdir):
    """Trains the predict-long checkpoints in a fresh process."""
    directory = workdir / "fixture"
    subprocess.run([sys.executable, __file__, "--fixture", str(directory),
                    "--seed", str(seed)], check=True, timeout=600)
    return read_fixture(directory)


def read_fixture(directory):
    from workloads import Fixture
    info = json.loads((directory / FIXTURE_JSON).read_text())
    return Fixture(directory=directory, seed=info["seed"],
                   train_pages_per_s=info["train_pages_per_s"])


def fixture_main(directory, seed, sizes):
    """Trains seq-train's stages once and saves the models.

    The training rate is predict-long's train_pages_per_s: seq-train's
    stages, measured once, so its spread is wider than seq-train's.
    """
    import workloads
    # the fixture labels nothing, so its corpus has no test split
    corpus, corpus_seed, _ = workloads.sequence_corpus(
        seed, sizes, 0, directory / "corpus")
    stages = list(workloads.sequence_stages(corpus, sizes, directory))
    workloads.save_fixture(stages[-1].models, directory)
    rate = (sum(s.page_epochs for s in stages)
            / sum(s.seconds for s in stages))
    (directory / FIXTURE_JSON).write_text(json.dumps(
        {"seed": corpus_seed, "train_pages_per_s": rate}))


def measure(workload, seed, seconds, workdir, fixture, run: Run) -> dict:
    """End-to-end metrics of one untraced run.

    The run first repeats the setup, at least MIN_SETUPS times and until
    SETUP_SECONDS have passed; set-up time is the median.  It then
    repeats iterations of the training stages, each followed by
    labelling once models exist, or of labelling alone when nothing is
    trained, until the next iteration would end after --seconds.  Each
    labelling runs whole passes until it has taken LABEL_SECONDS.  The
    speed of a shared machine drifts by tens of percent over seconds, so
    every metric pools samples spread over the run: rates are total work
    over total time, and latency percentiles are over every request of
    every pass.
    """
    import workloads
    wall0, cpu0 = time.perf_counter(), time.process_time()
    setup_times, latencies = [], []
    stage_seconds = {}
    page_epochs = 0
    model_digests, output_digests = set(), set()
    first_outputs, iterations = None, 0

    def label():
        nonlocal first_outputs
        start = time.perf_counter()
        while True:
            outputs = label_pass(workload, setup, models, latencies)
            run.attempted += len(outputs)
            output_digests.add(workloads.outputs_digest(outputs))
            first_outputs = first_outputs or outputs
            if time.perf_counter() - start >= LABEL_SECONDS:
                break

    while (len(setup_times) < MIN_SETUPS
           or time.perf_counter() < wall0 + SETUP_SECONDS):
        start = time.perf_counter()
        setup = workload.setup(seed, workdir / "corpus", fixture)
        setup_times.append(time.perf_counter() - start)
    models, loop0 = setup.models, time.perf_counter()
    while True:
        for stage in workload.train(setup, workdir / "round"):
            stage_seconds[stage.name] = (stage_seconds.get(stage.name, 0)
                                         + stage.seconds)
            page_epochs += stage.page_epochs
            run.attempted += stage.steps
            if stage.models:
                models = stage.models
                model_digests.add(workload.model_digest(models))
            if models:
                label()
        if not workload.trains:
            label()
        iterations += 1
        now = time.perf_counter()
        if (iterations >= MIN_ITERATIONS
                and now + (now - loop0) / iterations > wall0 + seconds):
            break
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0

    f1, failures = workloads.check_pass(workload, setup, first_outputs)
    for message in failures:
        run.check(False, message)
    if setup.redraws:
        print(f"note: corpus redrawn {setup.redraws} time(s); see "
              "workloads.sequence_corpus")
    run.check(len(setup.requests) >= MIN_REQUESTS,
              f"{len(setup.requests)} requests per pass; a 90th percentile "
              f"needs {MIN_REQUESTS}")
    run.check(len(model_digests) <= 1,
              f"training rounds gave {len(model_digests)} different models")
    run.check(len(output_digests) == 1,
              f"labelling passes gave {len(output_digests)} different outputs")
    run.check(cpu <= 1.01 * wall,
              f"process CPU time {cpu:.2f} s exceeds wall time {wall:.2f} s "
              "in the timed phase: more than one BLAS thread ran")
    train_rate = (page_epochs / sum(stage_seconds.values())
                  if workload.trains else fixture.train_pages_per_s)
    passes = len(latencies) // len(setup.requests)
    pages = passes * sum(len(lawsuit.pages) for lawsuit in setup.requests)
    print(f"timed phase: {iterations} iterations, {passes} labelling passes, "
          f"{len(latencies)} requests, {len(setup_times)} setups, "
          f"cpu {cpu:.2f} s / wall {wall:.2f} s")
    if stage_seconds:
        print("training seconds per round: " + ", ".join(
            f"{name} {s / iterations:.2f}"
            for name, s in stage_seconds.items()))
    print("macro_f1 by family: "
          + ", ".join(f"{k} {v:.4f}" for k, v in f1.items()))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_pages_per_s": (train_rate, "pages/s"),
        "predict_pages_per_s": (pages / sum(latencies), "pages/s"),
        "lawsuit_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "lawsuit_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[8],
                           "ms"),
        "macro_f1": (f1[workload.headline], "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def trace(workload, seed, seconds, workdir, fixture, run: Run) -> dict:
    """Per-layer metrics: rounds alternate untraced and traced.

    A round is one setup, the training stages and one labelling pass.
    Calls are per traced round and must repeat exactly; self times are
    medians over the traced rounds.
    """
    import workloads
    from tracer import SPANS, Tracer
    tracer = Tracer().install()
    rounds = {False: [], True: []}  # by traced
    start_all = time.perf_counter()
    try:
        while True:
            traced = len(rounds[False]) > len(rounds[True])
            tracer.reset()
            tracer.active = traced
            index = len(rounds[False]) + len(rounds[True])
            start = time.perf_counter()
            setup = workload.setup(seed, workdir / "corpus", fixture)
            models, epochs, model_digest = setup.models, 0, ""
            for stage in workload.train(setup, workdir / "round"):
                epochs += stage.epochs
                run.attempted += stage.steps
                if stage.models:
                    models = stage.models
                    model_digest = workload.model_digest(models)
            outputs = label_pass(workload, setup, models, [])
            elapsed = time.perf_counter() - start
            tracer.active = False
            run.attempted += len(outputs)
            f1, failures = workloads.check_pass(workload, setup, outputs)
            for message in failures:
                run.check(False, message)
            rounds[traced].append({
                "seconds": elapsed, "f1": f1, "epochs": epochs,
                "digest": (model_digest, workloads.outputs_digest(outputs)),
                "calls": dict(tracer.calls), "self_s": dict(tracer.self_s),
                "counts": dict(tracer.counts)})
            if rounds[True] and time.perf_counter() - start_all >= seconds:
                break
    finally:
        tracer.uninstall()

    reference, first = rounds[False][0], rounds[True][0]
    for r in rounds[False] + rounds[True]:
        run.check((r["digest"], r["f1"]) == (reference["digest"],
                                             reference["f1"]),
                  "rounds gave different predictions or macro-F1; tracing "
                  "must not change results")
    for r in rounds[True]:
        run.check(r["calls"] == first["calls"],
                  "span call counts differ between traced rounds")
    untraced_s = statistics.median(r["seconds"] for r in rounds[False])
    traced_s = statistics.median(r["seconds"] for r in rounds[True])
    print(f"tracing overhead: round {untraced_s:.3f} s untraced, "
          f"{traced_s:.3f} s traced ({100 * (traced_s / untraced_s - 1):+.1f}%)"
          f", {len(rounds[True])} traced round(s)")
    metrics = {}
    print(f"{'span':44s} {'calls':>8s} {'self_s':>10s} {'ms/call':>9s}")
    for span in SPANS:
        calls = first["calls"].get(span, 0)
        self_s = statistics.median(r["self_s"].get(span, 0.0)
                                   for r in rounds[True])
        metrics[f"{span}.calls"] = (calls, "count")
        metrics[f"{span}.self_s"] = (self_s, "s")
        if calls:
            print(f"{span:44s} {calls:8d} {self_s:10.4f} "
                  f"{1e3 * self_s / calls:9.4f}")
    counts, calls = first["counts"], first["calls"]
    metrics["textcnn.token_fill"] = (
        counts.get("tokens", 0) / counts["token_positions"]
        if counts.get("token_positions") else 0.0, "fraction")
    metrics["checkpoint.saves_per_epoch"] = (
        calls.get("checkpoint.save_checkpoint", 0) / first["epochs"]
        if first["epochs"] else 0.0, "1/epoch")
    metrics["crf.pages_per_call"] = (
        counts.get("crf_pages", 0) / calls["crf.forward_backward"]
        if calls.get("crf.forward_backward") else 0.0, "pages/call")
    for family in ("textcnn", "fusion", "crf", "seqmodels"):
        metrics[f"{family}.macro_f1"] = (first["f1"].get(family, 0.0),
                                         "fraction")
    return metrics


# -------------------------------------------------------------------- main

def run_all(args) -> int:
    """Runs every workload in a fresh process, so peak RSS is its own."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result["correct"] = False  # the run printed no result
            result["failed"] += 1
            continue
        result["correct"] &= last["correct"]
        result["attempted"] += last["attempted"]
        result["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixture", type=Path,
                        help="train the predict-long checkpoints into this "
                             "directory and exit")
    args = parser.parse_args(argv)
    if not args.workload and not args.fixture:
        parser.error("--workload is required")
    pin_threads()
    import_package()
    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.fixture:
        fixture_main(args.fixture, args.seed, workloads.FULL)
        return 0

    workload = workloads.WORKLOADS[args.workload](workloads.FULL)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    run = Run()
    try:
        print("env " + json.dumps(environment()))
        print(f"workload {workload.name} seed {args.seed} "
              f"seconds {args.seconds} trace {args.trace}")
        fixture = (make_fixture(args.seed, workdir)
                   if workload.name == "predict-long" else None)
        phase = trace if args.trace else measure
        metrics = phase(workload, args.seed, args.seconds, workdir, fixture,
                        run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = min(len(run.failures), run.attempted)
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name:22s} {value:14.6f} {unit}")
        # not in the JSON metrics: the counts below carry it
        print(f"{'error_rate':22s} {failed / run.attempted:14.6f} fraction "
              f"({failed} failed of {run.attempted} attempted)")
    print(json.dumps({
        "correct": not run.failures, "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
