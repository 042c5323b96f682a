"""hdspec benchmark: run one workload, check its outputs, print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-bundled|cli-large|spin-mc \
        --seed N --seconds S --trace 0|1

The program is the checkout's own `src/hdspec`; nothing is installed.
Operations run one at a time from this process (a closed loop with one
client).  Every reported time is in reference seconds: the wall-clock
scaled by the speed of the host at that moment, as `speed.py` measures
it in the same process as the timed work.  A run does a fixed number of
whole passes (rounds on spin-mc) set by --seconds alone, so every run of
one --seconds attempts the same operations.  With --trace 0 the last stdout line carries the end-to-end
metrics of BENCHMARK.json; with --trace 1 it carries the per-layer
metrics of a traced pass.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "hdspec" / "data"
SETUP_REPEATS = 5
# a CLI pass is 20-25 s on the reference machine: 1 pass at --seconds 30
CLI_PASS_BUDGET_S = 25.0
# a spin-mc round is about 0.3 s: 90 rounds at --seconds 30
SPIN_MC_ROUNDS_PER_S = 3
IMPORT_REPEATS = 3
WATCHDOG_S = 170

sys.path.insert(0, str(SRC))
import checks  # noqa: E402  (benchmark module next to this file)
import gen  # noqa: E402
import speed  # noqa: E402
import spin_mc  # noqa: E402
from stats import interquartile_mean  # noqa: E402
from tracer import summarize  # noqa: E402

# metric names and units, in BENCHMARK.json order
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# the checkout's sources first; bytecode is cached as for an installed package
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


@dataclass
class Run:
    code: int
    wall_s: float
    rss_kb: int
    stdout: str
    stderr: str


def run_process(argv: list[str], work: Path) -> Run:
    """Run one child to completion; its own peak RSS comes from wait4."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=ENV, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, wall, usage.ru_maxrss, out_path.read_text(), err_path.read_text())


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


# ---------------------------------------------------------------------------
# the CLI workloads


@dataclass
class Op:
    name: str
    args: list[str]


def run_command(args: list[str], work: Path) -> tuple[Run, float, float]:
    """`hdspec ARGS...` in a fresh interpreter, between two runs of the speed kernel.

    Returns the run, its wall-clock less the kernels, and that time in
    reference seconds.
    """
    speed_path = work / "speed.json"
    speed_path.unlink(missing_ok=True)
    run = run_process(python(str(BENCH / "timed_cli.py"), str(speed_path), "--", *args), work)
    if speed_path.is_file():
        kernels = json.loads(speed_path.read_text(encoding="utf-8"))
        wall = run.wall_s - sum(kernels)
    else:  # the child died before its second kernel: the host's speed is taken here
        kernels, wall = [speed.kernel()], run.wall_s
    return run, wall, speed.normalize(wall, kernels)


class CliWorkload:
    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.warm_up_walls: list[float] = []
        self.rejected_draws = 0

    def generate(self) -> None:
        """Make the workload's inputs, in this process."""

    def warm_up(self) -> float:
        """One `reproduce-paper` in a fresh interpreter (imports, bytecode, page cache); returns its time."""
        run, _, wall = run_command(["reproduce-paper", "--out-dir", str(self.work / "out" / "warm-up")], self.work)
        if run.code != 0:
            raise SystemExit(f"warm-up reproduce-paper exited {run.code}: {run.stderr.strip()}")
        self.warm_up_walls.append(wall)
        return wall

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, problems: checks.Problems, reports: dict[str, Path]) -> None:
        """Check the reports of the commands that succeeded."""
        raise NotImplementedError


class CliBundled(CliWorkload):
    """Every subcommand once, on the bundled inputs."""

    LAMBDA_C_UM = repr(2.0 * math.pi * 2.0)

    def ops(self) -> list[Op]:
        d = DATA
        return [
            Op("spin-structure", ["spin-structure", "--demo"]),
            Op("zeeman-map", ["zeeman-map", "--demo"]),
            Op("zeeman-coeffs", ["zeeman-coeffs", "--demo", "--transition", "16", "--lower-mf", "2", "--upper-mf", "3"]),
            Op("extrapolate-b", ["extrapolate-b", "--input", str(d / "line12_zeeman.csv")]),
            Op("fit-line", ["fit-line", "--input", str(d / "line12_depletion.csv")]),
            Op("extrapolate-rf", ["extrapolate-rf", "--input", str(d / "line12_rf.csv"), "--nominal-amplitude", "1.0"]),
            Op("ledger", ["ledger", "--raw-khz", "58605013478.33", "--raw-u-khz", "0.15", "--include-negligible"]),
            Op("composite", ["composite", "--optimize", "--demo"]),
            Op("extract", ["extract"]),
            Op("compare", ["compare"]),
            Op("adev", ["adev", "--input", str(d / "demo_counter.csv"), "--carrier-hz", repr(gen.CARRIER_HZ)]),
            Op("dfg", checks.dfg_cli_args()),
            Op("carrier", ["carrier", "--delta-rho-um", "2.0", "--lambda-um", self.LAMBDA_C_UM, "--sweep", "1:12:23"]),
            Op("reproduce-paper", ["reproduce-paper"]),
        ]

    def check(self, problems, reports):
        r = {name: checks.read_json(path) for name, path in reports.items()}
        levels = None
        if "spin-structure" in r:
            checks.check_spin_structure_report(problems, r["spin-structure"])
            problems.expect(sorted(r["spin-structure"].get("transitions", {})) == ["12", "16"], "spin-structure: transitions missing")
            levels = {(x["g1"], x["g2"], x["f"]): x["energy_khz"] for x in r["spin-structure"]["sections"]["v=1,N=1"]}
        if "zeeman-map" in r:
            checks.check_zeeman_map_report(problems, r["zeeman-map"], DATA, levels)
        if "zeeman-coeffs" in r:
            z = r["zeeman-coeffs"]
            checks.check_stretched_coeffs(problems, "zeeman-coeffs", 1, z["linear_khz_per_gauss"], z["quadratic_khz_per_gauss2"])
        if "fit-line" in r:
            fit = r["fit-line"]["fit"]
            problems.expect(fit["converged"] and abs(fit["center_khz"] - 0.037) < 0.05 and abs(fit["fwhm_khz"] - 0.195) < 0.05,
                            f"fit-line: center {fit['center_khz']}, fwhm {fit['fwhm_khz']}")
        if "extrapolate-b" in r:
            check_quadratic_fit(problems, "extrapolate-b", DATA / "line12_zeeman.csv", r["extrapolate-b"]["intercept"])
        if "extrapolate-rf" in r:
            check_quadratic_fit(problems, "extrapolate-rf", DATA / "line12_rf.csv", r["extrapolate-rf"]["f_zero"])
        if "ledger" in r:
            corrected = r["ledger"]["corrected"]
            problems.expect(corrected["value_khz"] == 58605013478.33 and abs(corrected["components"]["exp"] - 0.15) <= 1e-15,
                            f"ledger: corrected {corrected}")
        if "composite" in r:
            checks.check_composite_report(problems, DATA, r["composite"])
        if "extract" in r:
            x = r["extract"]
            value, u_exp = checks.composite_recomputed(DATA, 0.5)
            problems.expect(abs(x["composite"]["value"] - value) <= 1e-6 and abs(x["composite"]["components"]["exp"] - u_exp) <= 1e-12,
                            "extract: composite differs from measured_lines.json")
            mu, mp = x["mu_over_me"]["value"], x["mp_over_me"]["value"]
            problems.expect(abs(mu - 1223.899228668) <= 1e-8, f"extract: mu/m_e = {mu!r}")
            problems.expect(abs(mp - 1836.152673384) <= 1.5e-8, f"extract: m_p/m_e = {mp!r}")
            mu_ref, mp_ref = checks.extraction_recomputed(DATA, x["composite"]["value"])
            problems.expect(abs(mu - mu_ref) <= 1e-12 * mu and abs(mp - mp_ref) <= 1e-12 * mp, "extract: differs from f_ref scaling")
        if "compare" in r:
            table = checks.read_json(DATA / "determinations_mp_over_me.json")
            ref = next(d["value"] for d in table["determinations"] if d["label"] == table["reference"])
            pulls = [(d["value"] - ref) / d["u"] for d in table["determinations"]]
            problems.expect([row["pull"] for row in r["compare"]["rows"]] == pulls, "compare: pulls differ")
        if "adev" in r:
            checks.check_adev_report(problems, r["adev"], checks.read_counter(DATA / "demo_counter.csv"), gen.CARRIER_HZ)
        if "dfg" in r:
            checks.check_dfg_report(problems, r["dfg"])
        if "carrier" in r:
            c = r["carrier"]
            problems.expect(c["strength"] == 0.5 and repr(c["critical_wavelength_um"]) == self.LAMBDA_C_UM,
                            f"carrier: S(lambda_c) = {c['strength']!r}")
        if "reproduce-paper" in r:
            check_reproduce(problems, r["reproduce-paper"])


class CliLarge(CliWorkload):
    """The input-reading subcommands on seeded inputs 100-1000x the bundled size."""

    def generate(self) -> None:
        from hdspec import bundled

        inputs = self.work / "inputs"
        inputs.mkdir(exist_ok=True)
        rng = np.random.default_rng(self.seed)
        self.truth = {
            "fit-line": gen.depletion_scan(rng, inputs / "depletion.csv"),
            "adev": gen.counter_log(rng, inputs / "counter.csv"),
            "extrapolate-b": gen.field_scan(rng, inputs / "field.csv"),
            "extrapolate-rf": gen.rf_scan(rng, inputs / "rf.csv"),
        }
        demo = bundled.load_demo_coefficients()
        draws = gen.CoefficientDraws(rng)
        sets = [draws.draw(demo[(0, 0)], v) for v in range(gen.COEFF_VIBRATIONS)]
        sets += [draws.draw(demo[(1, 1)], v) for v in range(gen.COEFF_VIBRATIONS)]
        (inputs / "coefficients.conf").write_text(gen.coefficient_text(sets), encoding="utf-8")
        self.rejected_draws = draws.rejected

    def ops(self) -> list[Op]:
        i = self.work / "inputs"
        coeffs = ["--coefficients", str(i / "coefficients.conf")]
        fine = ",".join(gen.FINE_FIELDS)
        return [
            Op("fit-line", ["fit-line", "--input", str(i / "depletion.csv")]),
            Op("adev", ["adev", "--input", str(i / "counter.csv"), "--carrier-hz", repr(gen.CARRIER_HZ)]),
            Op("extrapolate-b", ["extrapolate-b", "--input", str(i / "field.csv")]),
            Op("extrapolate-rf", ["extrapolate-rf", "--input", str(i / "rf.csv"), "--nominal-amplitude", "1.0"]),
            Op("spin-structure", ["spin-structure", *coeffs]),
            Op("zeeman-map", ["zeeman-map", *coeffs, "--level", "1,1", "--b-values", fine]),
            Op("zeeman-coeffs", ["zeeman-coeffs", *coeffs, "--transition", "16", "--lower-mf", "2", "--upper-mf", "3", "--b-values", fine]),
            Op("composite", ["composite", "--optimize", *coeffs]),
            Op("zeeman-map-coarse", ["zeeman-map", "--demo", "--b-values", ",".join(gen.COARSE_FIELDS)]),
            Op("reproduce-paper", ["reproduce-paper"]),
        ]

    def check(self, problems, reports):
        r = {name: checks.read_json(path) for name, path in reports.items()}
        t = self.truth
        if "fit-line" in r:
            x = r["fit-line"]
            fit, truth = x["fit"], t["fit-line"]
            problems.expect(x["n_records"] == truth["n_records"], f"fit-line read {x['n_records']} records")
            for key, i in (("center_khz", 0), ("fwhm_khz", 1)):
                sigma = fit["covariance"][i][i] ** 0.5
                problems.expect(abs(fit[key] - truth[key]) <= 5 * sigma, f"fit-line: {key} {fit[key]} vs truth {truth[key]} (sigma {sigma})")
        if "adev" in r:
            checks.check_adev_report(problems, r["adev"], checks.read_counter(self.work / "inputs" / "counter.csv"), gen.CARRIER_HZ)
        for name, key, value in (("extrapolate-b", "intercept", "f0_khz"), ("extrapolate-rf", "f_zero", "f0_khz")):
            if name in r:
                q = r[name][key]
                problems.expect(r[name]["n_points"] == t[name]["n_points"], f"{name} read {r[name]['n_points']} points")
                problems.expect(abs(q["value"] - t[name][value]) <= 5 * q["components"]["exp"],
                                f"{name}: {q['value']!r} vs truth {t[name][value]!r}")
        levels = None
        if "spin-structure" in r:
            s = r["spin-structure"]
            checks.check_spin_structure_report(problems, s)
            problems.expect(len(s["sections"]) == 2 * gen.COEFF_VIBRATIONS, f"spin-structure: {len(s['sections'])} sections")
            levels = {(x["g1"], x["g2"], x["f"]): x["energy_khz"] for x in s["sections"]["v=1,N=1"]}
        for name in ("zeeman-map", "zeeman-map-coarse"):
            if name in r:
                problems.expect(len(r[name]["b_gauss"]) == len(gen.FINE_FIELDS if name == "zeeman-map" else gen.COARSE_FIELDS),
                                f"{name}: wrong field count")
                checks.check_zeeman_map_report(problems, r[name], DATA, levels if name == "zeeman-map" else None)
        if "zeeman-coeffs" in r:
            z = r["zeeman-coeffs"]
            checks.check_stretched_coeffs(problems, "zeeman-coeffs", 1, z["linear_khz_per_gauss"], z["quadratic_khz_per_gauss2"])
        if "composite" in r:
            checks.check_composite_report(problems, DATA, r["composite"])
        if "reproduce-paper" in r:
            check_reproduce(problems, r["reproduce-paper"])


def check_reproduce(problems: checks.Problems, report: dict) -> None:
    counts = (report["n_pass"], report["n_fail"], report["n_skip"])
    problems.expect(counts == (13, 0, 2), f"reproduce-paper: {counts} pass/fail/skip, expected (13, 0, 2)")


def check_quadratic_fit(problems: checks.Problems, name: str, path: Path, intercept: dict) -> None:
    """Weighted least squares of f = f0 + c x^2, solved apart from the program."""
    x, f, u = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    design = np.column_stack([np.ones_like(x), x ** 2]) / u[:, None]
    (f0, _), *_ = np.linalg.lstsq(design, (f - f[0]) / u, rcond=None)
    f0 += f[0]
    problems.expect(abs(intercept["value"] - f0) <= 1e-5, f"{name}: intercept {intercept['value']!r} vs {f0!r}")


REPORTS = {
    "spin-structure": "spin_structure.json", "zeeman-map": "zeeman_map.json", "zeeman-map-coarse": "zeeman_map.json",
    "zeeman-coeffs": "zeeman_coeffs.json", "extrapolate-b": "extrapolate_b.json", "fit-line": "fit_line.json",
    "extrapolate-rf": "extrapolate_rf.json", "ledger": "ledger.json", "composite": "composite.json",
    "extract": "extract.json", "compare": "compare.json", "adev": "adev.json", "dfg": "dfg.json",
    "carrier": "carrier.json", "reproduce-paper": "reproduce_paper.json",
}


@dataclass
class Pass:
    walls: dict[str, float]  # reference seconds (wall-clock on traced passes)
    raw_walls: dict[str, float] = field(default_factory=dict)
    rss_kb: int = 0
    report_bytes: int = 0
    failed: int = 0
    records: list = field(default_factory=list)


def run_op(workload: CliWorkload, op: Op, traced: bool, passes: dict[bool, Pass], failed_ops: dict) -> Path | None:
    """Run one command, traced or not, into its own output directory; returns its report if it succeeded."""
    out = workload.work / ("out-traced" if traced else "out") / op.name
    shutil.rmtree(out, ignore_errors=True)
    args = [*op.args, "--out-dir", str(out)]
    trace_path = workload.work / "trace.json"
    if traced:
        run = run_process(python(str(BENCH / "traced_cli.py"), str(trace_path), "--", *args), workload.work)
        raw = wall = run.wall_s
    else:
        run, raw, wall = run_command(args, workload.work)
    p = passes[traced]
    p.walls[op.name] = wall
    p.raw_walls[op.name] = raw
    p.rss_kb = max(p.rss_kb, run.rss_kb)
    if out.is_dir():
        p.report_bytes += sum(f.stat().st_size for f in out.iterdir())
    if run.code != 0:
        p.failed += 1
        failed_ops[op.name] = failed_ops.get(op.name, 0) + 1
        print(f"{op.name}: exit {run.code}: {run.stderr.strip().splitlines()[-1:]}", file=sys.stderr)
    if traced:
        p.records.append(json.loads(trace_path.read_text()))
    return out / REPORTS[op.name] if run.code == 0 else None


def run_pass(workload: CliWorkload, traced: tuple[bool, ...], problems: checks.Problems, failed_ops: dict) -> dict[bool, Pass]:
    """Every operation once per variant in `traced`; with both, the order alternates per operation."""
    passes = {t: Pass({}) for t in traced}
    reports = {t: {} for t in traced}
    for i, op in enumerate(workload.ops()):
        for t in traced if i % 2 == 0 else traced[::-1]:
            reports[t][op.name] = run_op(workload, op, t, passes, failed_ops)
    for t in traced:
        workload.check(problems, {k: v for k, v in reports[t].items() if v is not None})
    return passes


# ---------------------------------------------------------------------------
# per-layer import metrics


def import_metrics(work: Path) -> dict[str, float]:
    probe = "import time; t = time.perf_counter(); import hdspec.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        run = run_process(python("-c", probe), work)
        times.append(float(run.stdout.strip()))
    run = run_process(python("-X", "importtime", "-c", "import hdspec.cli"), work)
    return {"cli.import_s": statistics.median(times), "cli.import_scipy_s": scipy_import_s(run.stderr)}


def scipy_import_s(importtime: str) -> float:
    """Sum of the cumulative times of the outermost scipy imports."""
    entries = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    total, stack = 0, []
    for depth, name, cumulative in reversed(entries):  # parents now precede children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            total += cumulative
        stack.append((depth, is_scipy))
    return total * 1e-6


# ---------------------------------------------------------------------------
# running a workload


def timed_generation(generate):
    """Call `generate()` in this process; returns its result and its time in reference seconds."""
    before = speed.kernel()
    t0 = time.perf_counter()
    result = generate()
    elapsed = time.perf_counter() - t0
    return result, speed.normalize(elapsed, [before, speed.kernel()])


def timed_setups(workload: CliWorkload) -> float:
    """Median of the set-ups: input generation here, then one warm-up command."""
    return statistics.median(timed_generation(workload.generate)[1] + workload.warm_up() for _ in range(SETUP_REPEATS))


def run_cli(workload: CliWorkload, seconds: float, trace: bool) -> dict:
    setup_s = timed_setups(workload)
    problems, failed_ops = checks.Problems(), {}
    if trace:
        # one untraced and one traced run of every command, interleaved so drift hits both alike
        both = run_pass(workload, (False, True), problems, failed_ops)
        plain, traced = both[False], both[True]
        metrics = summarize(traced.records, 1)
        metrics["cli.report_bytes"] = traced.report_bytes
        metrics["trace.overhead_s"] = sum(traced.raw_walls.values()) - sum(plain.raw_walls.values())
        metrics.update(import_metrics(workload.work))
        passes = [plain, traced]
    else:
        passes = [run_pass(workload, (False,), problems, failed_ops)[False]
                  for _ in range(max(1, int(seconds // CLI_PASS_BUDGET_S)))]
        pass_s = [sum(p.walls.values()) for p in passes]
        n_commands = sum(len(p.walls) for p in passes)
        metrics = {
            "setup_s": setup_s,
            "pass_s": statistics.median(pass_s),
            "command_s": interquartile_mean([w for p in passes for w in p.walls.values()]),
            "reproduce_paper_s": statistics.mean([*workload.warm_up_walls, *(p.walls["reproduce-paper"] for p in passes)]),
            "samples_per_s": n_commands / sum(pass_s),
            "peak_rss_mb": max(p.rss_kb for p in passes) / 1024.0,
        }
    return {
        "attempted": sum(len(p.walls) for p in passes),
        "failed": sum(p.failed for p in passes),
        "problems": problems,
        "failed_ops": failed_ops,
        "metrics": metrics,
        "op_walls": passes[0].walls,
        "rejected_draws": workload.rejected_draws,
    }


def run_spin_mc(work: Path, seed: int, seconds: float, trace: bool) -> dict:
    """Three set-ups give setup_s; the worker of the last one goes on to the measured rounds.

    A set-up draws and screens the coefficient pairs here, in this
    process, and starts a worker that reads them; each part is scaled by
    the speed kernel timed in its own process.
    """
    rounds = max(2, int(seconds * SPIN_MC_ROUNDS_PER_S))
    draws = work / "draws.json"
    base = python(str(BENCH / "spin_mc.py"), "--draws", str(draws), "--rounds", str(rounds),
                  "--trace", str(int(trace)), "--work", str(work))
    setups = []
    for i in range(SETUP_REPEATS):
        last = i == SETUP_REPEATS - 1
        rejected, generation = timed_generation(lambda: gen.write_spin_mc_draws(seed, len(spin_mc.HIGHER_N) * rounds, draws))
        t0 = time.perf_counter()
        proc = subprocess.Popen(base if last else [*base, "--setup-only"], cwd=work, env=ENV, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline().split()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        if ready[:1] != ["ready"] or proc.returncode != 0:
            raise SystemExit(f"spin-mc worker exited {proc.returncode}")
        # the worker times the kernel twice just before it reports ready
        kernels = [float(k) for k in ready[1:]]
        setups.append(generation + speed.normalize(elapsed - sum(kernels), kernels))
    result = json.loads(rest.strip().splitlines()[-1])
    result["rejected_draws"] = rejected
    if trace:
        result["metrics"].update(import_metrics(work))
    else:
        result["metrics"].update(setup_s=statistics.median(setups), peak_rss_mb=usage.ru_maxrss / 1024.0)
    return result


WORKLOADS = {"cli-bundled": CliBundled, "cli-large": CliLarge, "spin-mc": None}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "hdspec" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'hdspec'} is missing", file=sys.stderr)
        return 2

    def watchdog(signum, frame):
        raise TimeoutError(f"benchmark exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, watchdog)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # children are killed on the way out
    signal.alarm(WATCHDOG_S)
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "spin-mc":
            result = run_spin_mc(work, args.seed, args.seconds, bool(args.trace))
        else:
            result = run_cli(WORKLOADS[args.workload](work, args.seed), args.seconds, bool(args.trace))
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    spec = SPEC["per_layer" if args.trace else "end_to_end"]
    problems = result["problems"]
    if result.get("n_problems", len(problems)) > len(problems):
        problems.append(f"... {result['n_problems'] - len(problems)} more")
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"failed operations: {result['failed_ops']}; draws skipped: {result['rejected_draws']}", file=sys.stderr)
    if "op_walls" in result:
        print("last pass, s: " + ", ".join(f"{k} {v:.3f}" for k, v in result["op_walls"].items()), file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
