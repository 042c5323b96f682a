"""The spin-mc workload: a Monte-Carlo loop over the hdspec library API.

Usage: python3 spin_mc.py --draws DRAWS_JSON --rounds R --trace 0|1 --work DIR [--setup-only]

DRAWS_JSON holds the seeded coefficient pairs that `gen.write_spin_mc_draws`
made in the parent process.  Set-up (imports, bundled data, reading the
draws, one warm-up propagation per higher level) ends with a `ready`
line on stdout that carries two times of the speed kernel; the parent
times the set-up.  Then R rounds run.  A round is four draws, each with
one higher level N = 2, 3, 4, 5, followed by one in-process
`reproduce-paper`.  The speed kernel runs between rounds, and every time
a round reports is scaled by the kernel times on either side of it
(see speed.py).  The last line of stdout is a JSON object with the
counts, timings and problems.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import speed
from stats import interquartile_mean
from tracer import Tracer, summarize

HIGHER_N = (2, 3, 4, 5)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--draws", type=Path, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # -- set-up ----------------------------------------------------------
    from hdspec import angular, bundled, cli, composite, constants, zeeman
    from hdspec.quantity import Quantity

    demo = bundled.load_demo_coefficients()
    lines = bundled.load_measured_lines()
    model = bundled.load_scaling_model()
    consts = bundled.load_constants()
    couplings = bundled.load_couplings()
    md_over_mp = Quantity(consts.md_over_mp.value, "dimensionless", {"CODATA": consts.md_over_mp.uncertainty})
    higher = {n: angular.HyperfineCoefficients(1, n, dict(demo[(1, 1)].values)) for n in HIGHER_N}
    params = angular.SpinUncertaintyParams()
    levels12 = bundled.TRANSITION_LEVELS

    pairs = [
        tuple(angular.HyperfineCoefficients(base.v, base.n_rot, {int(k): e for k, e in values.items()})
              for base, values in zip((demo[(0, 0)], demo[(1, 1)]), pair))
        for pair in json.loads(args.draws.read_text(encoding="utf-8"))
    ]
    if len(pairs) < len(HIGHER_N) * args.rounds:
        raise SystemExit(f"{args.draws}: {len(pairs)} draws for {args.rounds} rounds")

    def propagate(lower, upper, high):
        """One draw: every operation timed on its own; a failure yields None."""
        r: dict = {}
        ops = [
            ("levels_lower", lambda: angular.level_structure(lower, angular.ProductBasis(0))),
            ("levels_upper", lambda: angular.level_structure(upper, angular.ProductBasis(1))),
            ("table", lambda: angular.transition_table(lower, upper, levels12)),
            ("f12", lambda: angular.spin_frequency((upper, levels12["12"][1]), (lower, levels12["12"][0]))),
            ("f16", lambda: angular.spin_frequency((upper, levels12["16"][1]), (lower, levels12["16"][0]))),
            ("u12", lambda: angular.spin_uncertainty("12", r["table"], params)),
            ("u16", lambda: angular.spin_uncertainty("16", r["table"], params)),
            ("weight", lambda: composite.optimize_weight(r["table"], params)),
            ("q", lambda: composite.composite_frequency(r["inp"], r["weight"].b_star)),
            ("q16", lambda: composite.composite_frequency(r["inp"], 0.0)),
            ("q12", lambda: composite.composite_frequency(r["inp"], 1.0)),
            ("mu", lambda: constants.extract_mu_over_me(r["q"], model, consts)),
            ("mp", lambda: constants.extract_mp_over_me(r["q"], model, consts, md_over_mp)),
            ("z0", lambda: zeeman.transition_coeffs((lower, (1, 2, 2, 0)), (upper, (1, 2, 3, 0)), couplings)),
            ("z+", lambda: zeeman.transition_coeffs((lower, (1, 2, 2, 2)), (upper, (1, 2, 3, 3)), couplings)),
            ("z-", lambda: zeeman.transition_coeffs((lower, (1, 2, 2, -2)), (upper, (1, 2, 3, -3)), couplings)),
            ("levels_high", lambda: angular.level_structure(high, angular.ProductBasis(high.n_rot))),
        ]
        times, failed = [], []
        for name, fn in ops:
            if name == "q":
                # glue between the library calls, outside the timed region
                try:
                    r["inp"] = composite.CompositeInput(
                        f12=lines["12"]["f_exp"],
                        f16=lines["16"]["f_exp"],
                        fspin12=Quantity(r["f12"], "kHz", {"theor_spin": r["u12"]}),
                        fspin16=Quantity(r["f16"], "kHz", {"theor_spin": r["u16"]}),
                        tables=r["table"],
                    )
                except (KeyError, TypeError, ValueError):
                    r["inp"] = None
            t0 = time.perf_counter()
            try:
                r[name] = fn()
            except Exception:  # counted as a failed operation; checks skip it
                r[name] = None
                failed.append(name)
            times.append(time.perf_counter() - t0)
        return r, times, failed

    def reproduce_paper() -> tuple[float, bool]:
        out = args.work / "reproduce"
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["reproduce-paper", "--out-dir", str(out)])
        elapsed = time.perf_counter() - t0
        return elapsed, code == 0

    for n in HIGHER_N:  # warm-up
        propagate(demo[(0, 0)], demo[(1, 1)], higher[n])
    reproduce_paper()
    print(f"ready {speed.kernel()!r} {speed.kernel()!r}", flush=True)
    if args.setup_only:
        return 0

    # -- checks, built after set-up ------------------------------------------
    data = Path(bundled.data_path("measured_lines.json")).parent
    terms = {
        n: {k: angular.term_operator(k, angular.ProductBasis(n)) for k in angular.COEFF_INDICES} for n in (0, 1, *HIGHER_N)
    }
    problems = checks.Problems()

    def check_level_set(name, coeffs, levels):
        checks.check_levels(problems, name, coeffs.n_rot, [(lv.f, lv.degeneracy, lv.energy) for lv in levels])
        for lv in levels:
            gamma = {k: float(np.trace(lv.vectors.T @ t @ lv.vectors)) / lv.degeneracy for k, t in terms[coeffs.n_rot].items()}
            expected = sum(gamma[k] * coeffs.coefficient(k) for k in gamma)
            scale = sum(abs(gamma[k] * coeffs.coefficient(k)) for k in gamma)
            problems.expect(abs(lv.energy - expected) <= 1e-9 * scale + 1e-9,
                            f"{name}: level {lv.label} energy {lv.energy} != sum gamma_k E_k = {expected}")

    def check_draw(r, lower, upper, high):
        for key, coeffs in (("levels_lower", lower), ("levels_upper", upper), ("levels_high", high)):
            if r[key] is not None:
                check_level_set(f"N={coeffs.n_rot}", coeffs, r[key])
        for key, sign in (("z+", 1), ("z-", -1)):
            if r[key] is not None:
                checks.check_stretched_coeffs(problems, f"stretched {key}", sign, r[key].linear, r[key].quadratic)
        inp = r.get("inp")
        if inp is not None:
            for key, tid, b12 in (("q12", "12", 1.0), ("q16", "16", 0.0)):
                q, f, fs = r[key], getattr(inp, f"f{tid}"), getattr(inp, f"fspin{tid}")
                if q is None:
                    continue
                problems.expect(
                    q.value == f.value - fs.value
                    and q.component("exp") == f.component("exp")
                    and r["u" + tid] is not None
                    and q.component("theor_spin") == r["u" + tid],
                    f"composite at b12={b12} does not reduce to line {tid}",
                )
        if r["weight"] is not None:
            w = r["weight"]
            problems.expect(all(w.u_star <= u * (1 + 1e-12) for _, u in w.profile), f"u_star {w.u_star} exceeds the profile")
        if r["q"] is not None and r["mu"] is not None and r["mp"] is not None:
            mu, mp = checks.extraction_recomputed(data, r["q"].value)
            problems.expect(abs(r["mu"].value - mu) <= 1e-12 * mu, f"mu/m_e {r['mu'].value!r} != recomputed {mu!r}")
            problems.expect(abs(r["mp"].value - mp) <= 1e-12 * mp, f"m_p/m_e {r['mp'].value!r} != recomputed {mp!r}")

    # -- measured rounds -----------------------------------------------------
    tracer = Tracer() if args.trace else None
    attempted = failed = 0
    failed_ops: dict[str, int] = {}
    op_times: list[float] = []
    draw_times: list[float] = []
    round_times = {False: [], True: []}
    rp_times: list[float] = []
    report_bytes = 0
    draws = iter(pairs)
    kernel = speed.kernel()
    for i in range(args.rounds):
        # traced and untraced rounds alternate, so drift in machine speed hits both alike
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
            tracer.new_pass()
        round_ops, round_draws = [], []
        for n in HIGHER_N:
            lower, upper = next(draws)
            r, times, fails = propagate(lower, upper, higher[n])
            attempted += len(times)
            failed += len(fails)
            for name in fails:
                key = f"{name} N={n}" if name == "levels_high" else name
                failed_ops[key] = failed_ops.get(key, 0) + 1
            round_ops.extend(times)
            round_draws.append(sum(times))
            check_draw(r, lower, upper, higher[n])
        rp, ok = reproduce_paper()
        attempted += 1
        if ok:
            report = checks.read_json(args.work / "reproduce" / "reproduce_paper.json")
            problems.expect((report["n_pass"], report["n_fail"], report["n_skip"]) == (13, 0, 2),
                            f"reproduce-paper: {report['n_pass']} pass, {report['n_fail']} fail, {report['n_skip']} skip")
            report_bytes = (args.work / "reproduce" / "reproduce_paper.json").stat().st_size
        else:
            failed += 1
            failed_ops["reproduce-paper"] = failed_ops.get("reproduce-paper", 0) + 1
        if traced:
            tracer.uninstall()
        previous, kernel = kernel, speed.kernel()
        scale = speed.normalize(1.0, [previous, kernel])
        op_times.extend(t * scale for t in (*round_ops, rp))
        draw_times.extend(t * scale for t in round_draws)
        rp_times.append(rp * scale)
        round_times[traced].append((sum(round_ops) + rp) * scale)

    result = {
        "attempted": attempted,
        "failed": failed,
        "failed_ops": failed_ops,
        "problems": problems[:20],
        "n_problems": len(problems),
    }
    if tracer is None:
        result["metrics"] = {
            "pass_s": statistics.mean(round_times[False]),
            "command_s": interquartile_mean(op_times),
            "reproduce_paper_s": statistics.mean(rp_times),
            "samples_per_s": len(draw_times) / sum(draw_times),
        }
    else:
        n_traced = len(round_times[True])
        layer = summarize([tracer.record()], n_traced)
        layer["cli.report_bytes"] = report_bytes
        layer["trace.overhead_s"] = statistics.mean(round_times[True]) - statistics.mean(round_times[False])
        result["metrics"] = layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
