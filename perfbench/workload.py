"""One workload in a fresh interpreter (started by ``perfbench/run.py``).

``workload.py setup --workload W --seed N``
    Times ``import cavqed.cli`` and the building of the workload's inputs,
    then exits: one sample of ``setup_s``.
``workload.py run --workload W --seed N --seconds S --trace 0|1``
    Builds the inputs, runs one untimed warm-up pass, then whole passes until
    ``S`` seconds have elapsed, and checks the outputs of the last pass.  With
    ``--trace 1`` the passes run under :class:`tracer.Tracer`.

Both print one JSON object as the last line of standard output.
"""
import time

_T0 = time.perf_counter()  # before any cavqed import: the start of set-up

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _setup(workload: str, seed: int, workdir: Path):
    import cavqed.cli
    t_import = time.perf_counter()
    import inputs
    built = inputs.build(workload, seed, workdir)
    t_ready = time.perf_counter()
    timing = {"import_s": t_import - _T0, "inputs_s": t_ready - t_import,
              "setup_s": t_ready - _T0}
    return cavqed.cli, built, timing


#: A pass is quiet when the hypervisor took at most this share of the
#: machine's CPU time while it ran.
QUIET_STEAL_SHARE = 0.02


def steal_s() -> float | None:
    """CPU time the hypervisor has taken from this machine since boot, summed
    over CPUs (``steal`` in Linux /proc/stat); None where it cannot be read."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def quiet_median(times: list[float], steals: list) -> float:
    """Median wall time of the quiet passes, and at least of the quieter half.

    On a shared virtual machine a neighbour can take the CPUs for seconds at a
    time; such a pass times the neighbour, not the program.  Without steal
    figures every pass counts."""
    if None in steals:
        return statistics.median(times)
    ncpu = os.cpu_count() or 1
    shares = [s / (ncpu * t) for t, s in zip(times, steals)]
    cut = max(QUIET_STEAL_SHARE, statistics.median(shares))
    return statistics.median(t for t, share in zip(times, shares) if share <= cut)


def _pass(cli, built) -> tuple[float, float | None, int]:
    """Run every op once; return the wall time, the CPU steal during it, and
    the number of failed ops."""
    failed = 0
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        steal_start = steal_s()
        start = time.perf_counter()
        for op in built.ops:
            if cli.main(list(op.argv)) != 0:
                failed += 1
        elapsed = time.perf_counter() - start
        steal_end = steal_s()
    steal = steal_end - steal_start if None not in (steal_start, steal_end) else None
    return elapsed, steal, failed


def _digest(built) -> str:
    h = hashlib.sha256()
    for op in built.ops:
        for path in dict.fromkeys((op.out, op.out.with_suffix(".json"))):  # + HOM sidecar
            if path.exists():
                h.update(path.read_bytes())
    return h.hexdigest()


def _layer_metrics(per_pass: list[dict], pass_times: list[float], steals: list) -> dict:
    """Per-pass medians of the traced busy times and exact per-pass counts."""
    def counts(get):
        values = {get(snap) for snap in per_pass}
        if len(values) != 1:
            raise RuntimeError(f"a traced count differs between passes: {sorted(values)}")
        return values.pop()

    def seconds(key):
        return statistics.median(snap["seconds"].get(key, 0.0) for snap in per_pass)

    metrics = {}
    for key in ("config.load_config", "system.assemble_hamiltonian", "cavity.eval_fields",
                "transmon.transmon_spectrum", "external.read_external_modes",
                "perturbation.perturbed_frequency_tip", "hom.spectral_weights",
                "ports.transfer_functions"):
        metrics[f"{key}.calls"] = (counts(lambda s: s["calls"].get(key, 0)), "count")
    for key in ("config.load_config", "system.dressed_spectrum",
                "system.assemble_hamiltonian", "system.coupling_matrix",
                "system.dispersive_params", "cavity.eval_fields",
                "transmon.transmon_spectrum", "external.read_external_modes",
                "perturbation.perturbed_frequency_tip", "hom.hom_curve",
                "hom.scan_balanced_center", "hom.spectral_weights",
                "ports.transfer_functions", "ports.two_port_response"):
        metrics[f"{key}.s"] = (seconds(key), "s")
    assigned = counts(lambda s: s["labels_assigned"])
    metrics["system.hamiltonian_mb"] = (counts(lambda s: s["hamiltonian_bytes"]) / 1e6, "MB")
    metrics["system.max_dim"] = (counts(lambda s: s["max_dim"]), "count")
    metrics["system.label_use_ratio"] = (
        counts(lambda s: s["labels_read"]) / assigned if assigned else 0.0, "ratio")
    metrics["hom.bins_x_evals"] = (counts(lambda s: s["bins_x_evals"]), "count")
    metrics["cli.self_s"] = (statistics.median(
        t - snap["top_s"] for t, snap in zip(pass_times, per_pass)), "s")
    metrics["traced.pass_s"] = (quiet_median(pass_times, steals), "s")
    return metrics


def _run(args, workdir: Path) -> dict:
    cli, built, timing = _setup(args.workload, args.seed, workdir)
    import checks

    warm_s, _, failed = _pass(cli, built)
    attempted = len(built.ops)
    digest = _digest(built)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    pass_times, steals, snapshots = [], [], []
    start = time.perf_counter()
    try:
        while not pass_times or time.perf_counter() - start < args.seconds:
            if tracer:
                tracer.reset()
            elapsed, steal, pass_failed = _pass(cli, built)
            pass_times.append(elapsed)
            steals.append(steal)
            if tracer:
                snapshots.append(tracer.snapshot())
            attempted += len(built.ops)
            failed += pass_failed
            if _digest(built) != digest:
                raise RuntimeError("outputs differ between passes of the same inputs")
    finally:
        if tracer:
            tracer.uninstall()
    timed_s = time.perf_counter() - start
    errors = ([f"{failed} command(s) exited with a non-zero code"] if failed
              else checks.check(built, checks.read_outputs(built)))
    result = {
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "timing": timing,
        "warmup_s": warm_s,
        "pass_times_s": pass_times,
        "pass_steal_s": steals,
        "pass_s": quiet_median(pass_times, steals),
        "items_per_pass": built.items_per_pass,
        "ops": [op.name for op in built.ops],
        "timed_s": timed_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer:
        result["layers"] = _layer_metrics(snapshots, pass_times, steals)
        result["trace"] = {"per_pass": snapshots}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    try:
        if args.mode == "setup":
            result = _setup(args.workload, args.seed, workdir)[2]
        else:
            result = _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
