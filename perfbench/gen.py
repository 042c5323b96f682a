"""Seeded inputs: the large CLI input files and the coefficient draws.

Everything here derives from one `numpy.random.Generator` seeded by the
workload seed, so one seed gives byte-identical files and the same draw
sequence.  The injected truths are returned so the checks can compare
the program's fits against them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

CARRIER_HZ = 58605052164258.0
# 1 % relative perturbation of every hyperfine coefficient per draw
DRAW_SPREAD = 0.01
# field grid of the large Zeeman runs: 0 to 0.2 G in 1e-4 G steps
FINE_FIELDS = [f"{i / 10000:.4f}" for i in range(2001)]
# grid on which overlap tracking fails at the first step (see README)
COARSE_FIELDS = [str(5 * i) for i in range(41)]
# coefficient-file size of the large spin-structure run: v = 0..99, N = 0 and 1
COEFF_VIBRATIONS = 100


def _write_rows(path: Path, header: str, rows) -> None:
    path.write_text(header + "\n" + "".join(rows), encoding="utf-8")


def depletion_scan(rng: np.random.Generator, path: Path) -> dict:
    """201 detunings x (100 laser-on + 100 background) depletion records."""
    truth = {
        "center_khz": float(rng.uniform(-0.05, 0.05)),
        "fwhm_khz": float(rng.uniform(0.17, 0.22)),
        "amplitude": float(rng.uniform(0.015, 0.025)),
        "n_records": 201 * 200,
    }
    detunings = np.round(np.linspace(-1.0, 1.0, 201), 6)
    hwhm2 = (truth["fwhm_khz"] / 2.0) ** 2
    rows = []
    run = 0
    for x in detunings.tolist():
        line = truth["amplitude"] * hwhm2 / ((x - truth["center_khz"]) ** 2 + hwhm2)
        on = 0.05 + line + rng.normal(0.0, 0.004, 100)
        off = 0.05 + rng.normal(0.0, 0.004, 100)
        for flag, values in ((1, on), (0, off)):
            for v in values.tolist():
                rows.append(f"{x!r},r{run:05d},{flag},{v:.7f}\n")
                run += 1
    _write_rows(path, "detuning_khz,run_id,laser_on,depletion", rows)
    return truth


def counter_log(rng: np.random.Generator, path: Path) -> dict:
    """10^5 one-second counter readings with white frequency noise."""
    n = 100_000
    y = rng.normal(0.0, 1e-13, n)
    f = CARRIER_HZ * (1.0 + y)
    _write_rows(path, "t_s,f_hz", (f"{i}.0,{v!r}\n" for i, v in enumerate(f.tolist())))
    return {"n_samples": n}


def field_scan(rng: np.random.Generator, path: Path) -> dict:
    """3000 line positions f0 + c B^2 with 0.15 kHz noise."""
    truth = {"f0_khz": 58605013478.33 + float(rng.uniform(-1.0, 1.0)), "c_khz_per_g2": float(rng.uniform(-2.0, -0.5))}
    b = rng.uniform(0.05, 1.0, 3000)
    f = truth["f0_khz"] + truth["c_khz_per_g2"] * b ** 2 + rng.normal(0.0, 0.15, b.size)
    _write_rows(path, "B_gauss,f_khz,u_khz", (f"{x!r},{v!r},0.15\n" for x, v in zip(b.tolist(), f.tolist())))
    truth["n_points"] = int(b.size)
    return truth


def rf_scan(rng: np.random.Generator, path: Path) -> dict:
    """3000 line positions f0 + k A^2 over trap-RF amplitude with 0.2 kHz noise."""
    truth = {"f0_khz": 58605013478.33 + float(rng.uniform(-1.0, 1.0)), "k_khz": float(rng.uniform(0.1, 0.6))}
    a = rng.uniform(0.2, 1.6, 3000)
    f = truth["f0_khz"] + truth["k_khz"] * a ** 2 + rng.normal(0.0, 0.2, a.size)
    _write_rows(path, "amplitude,f_khz,u_khz", (f"{x!r},{v!r},0.2\n" for x, v in zip(a.tolist(), f.tolist())))
    truth["n_points"] = int(a.size)
    return truth


class CoefficientDraws:
    """Seeded 1 % perturbations of a base hdspec coefficient set.

    hdspec's `eigenlevels` rejects a Hamiltonian whose commutator with
    F_z or F^2 exceeds an absolute 1e-9 kHz, which roundoff reaches on
    about one full-mantissa N=1 set in 8000 (see README).  Such a set is
    counted in `rejected` and drawn again, so that every kept draw
    propagates.  The screen recomputes that check here with numpy, from
    term operators built once in this process; the program's own level
    code never runs on a draw before the measured operations do, and a
    change to it does not change which draws are kept.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        from hdspec import angular

        self.angular = angular
        self.rng = rng
        self.rejected = 0
        self._operators: dict[int, tuple] = {}

    def _commutes(self, coeffs) -> bool:
        angular = self.angular
        if coeffs.n_rot not in self._operators:
            basis = angular.ProductBasis(coeffs.n_rot)
            terms = [(k, angular.term_operator(k, basis)) for k in angular.COEFF_INDICES]
            self._operators[coeffs.n_rot] = (terms, (basis.f_z(), basis.f_squared()))
        terms, ops = self._operators[coeffs.n_rot]
        h = np.zeros(terms[0][1].shape)
        for k, term in terms:  # summed in the order hdspec's build_hfs uses
            e = coeffs.coefficient(k)
            if e != 0.0:
                h += e * term
        return all(np.max(np.abs(h @ op - op @ h)) <= 1e-9 for op in ops)

    def draw(self, base, v: int | None = None):
        while True:
            values = {k: e * (1.0 + DRAW_SPREAD * self.rng.standard_normal()) for k, e in sorted(base.values.items())}
            coeffs = self.angular.HyperfineCoefficients(base.v if v is None else v, base.n_rot, values)
            if self._commutes(coeffs):
                return coeffs
            self.rejected += 1


def write_spin_mc_draws(seed: int, n_pairs: int, path: Path) -> int:
    """`n_pairs` perturbed demo (0,0) and (1,1) sets as JSON; returns the draws screened out."""
    from hdspec import bundled

    demo = bundled.load_demo_coefficients()
    draws = CoefficientDraws(np.random.default_rng(seed))
    pairs = []
    for _ in range(n_pairs):
        pair = (draws.draw(demo[(0, 0)]), draws.draw(demo[(1, 1)]))
        pairs.append([{str(k): e for k, e in c.values.items()} for c in pair])
    path.write_text(json.dumps(pairs), encoding="utf-8")
    return draws.rejected


def coefficient_text(sets) -> str:
    out = []
    for c in sets:
        out.append(f"[v={c.v},N={c.n_rot}]\n")
        out.extend(f"E{k} = {e!r}\n" for k, e in sorted(c.values.items()))
    return "".join(out)
