"""Uncertainty bookkeeping primitives."""

import ast
import collections
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hdspec
from conftest import run_python
from hdspec.carrier import CarrierModel
from hdspec.coefficients import HyperfineCoefficients, SensitivityTable, SpinUncertaintyParams, TransitionSensitivities
from hdspec.composite import CompositeInput
from hdspec.constants import Constant, ScalingModel
from hdspec.lineshape import SpectrumPoint
from hdspec.metrology import CombParams, FrequencyTimeSeries, LaserLock
from hdspec.quantity import Quantity, combine_linear, exact_sum, finite, overflow_as_value_error, parenthetical
from hdspec.systematics import ShiftEntry

components_st = st.dictionaries(
    st.sampled_from(["exp", "theor_QED", "theor_spin", "CODATA", "other:tag"]),
    st.floats(0.0, 10.0),
    max_size=5,
)
quantity_st = st.builds(
    Quantity,
    st.floats(-1e6, 1e6),
    st.just("kHz"),
    components_st,
)


@settings(max_examples=60)
@given(q=quantity_st)
def test_quadrature_never_exceeds_absolute_sum(q):
    assert q.total_uncertainty("quadrature") <= q.total_uncertainty("absolute-sum") + 1e-12


def test_total_uncertainty_modes():
    q = Quantity(10.0, "kHz", {"exp": 0.3, "theor_spin": 0.4})
    assert q.total_uncertainty() == pytest.approx(0.5)
    assert q.total_uncertainty("absolute-sum") == pytest.approx(0.7)
    with pytest.raises(ValueError, match="unknown combination mode"):
        q.total_uncertainty("vibes")


def test_total_uncertainty_does_not_depend_on_the_order_of_the_components():
    """Equal quantities have equal totals: each sum is correctly rounded, whatever order the components came in."""
    abc = Quantity(0.0, "kHz", {"a": 1e-16, "b": 1.0, "c": 1e-16})
    acb = Quantity(0.0, "kHz", {"a": 1e-16, "c": 1e-16, "b": 1.0})
    assert abc == acb
    for mode in ("absolute-sum", "quadrature"):
        assert abc.total_uncertainty(mode) == acb.total_uncertainty(mode)
    assert abc.total_uncertainty("absolute-sum") == 1.0000000000000002


@given(st.lists(st.floats(), max_size=8))
def test_exact_sum_is_math_fsum_wherever_fsum_gives_a_sum(values):
    try:
        want = math.fsum(values)
    except ValueError as exc:  # inf - inf
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            exact_sum(values)
        return
    except OverflowError:  # a running total beyond float64: the exact sum in fractions, rounded once, or that error
        exact = sum(map(Fraction, values)) if all(map(math.isfinite, values)) else None
        if exact is None or abs(exact) >= Fraction(2) ** 1024 - Fraction(2) ** 970:  # rounds beyond float64
            with pytest.raises(OverflowError, match="^intermediate overflow in fsum$"):
                exact_sum(values)
        else:
            assert exact_sum(values) == float(exact)
        return
    assert str(exact_sum(values)) == str(want)  # the same bits, -0.0 and infinities among them


@pytest.mark.parametrize(
    "values, want",
    [
        ([1e308, 1e308, -1e308], 1e308),
        ([1e308, 1e308, -1e308, -1e308, 5e-324], 5e-324),
        ((1.7e308, 1.7e308, -1.7e308, 0.1), 1.7e308),
    ],
)
def test_exact_sum_of_finite_values_whose_running_total_overflows_is_their_sum_rounded_once(values, want):
    assert exact_sum(values) == want


@pytest.mark.parametrize("values", [[1e308, 1e308], [1e308, 1e308, math.inf], [1e308, 1e308, -math.inf]])
def test_exact_sum_beyond_float64_or_of_an_infinity_after_the_overflow_raises_as_fsum(values):
    with pytest.raises(OverflowError, match="^intermediate overflow in fsum$"):
        exact_sum(values)


# the builtin sum() calls of src/hdspec, by module and innermost function: each adds Python ints, or
# booleans, which it adds exactly on every Python version
INTEGER_SUMS = {("angular.py", "_cg"): 1, ("cli.py", "_cmd_reproduce_paper"): 1, ("zeeman.py", "_on_python_floats"): 2}


def test_builtin_sum_adds_only_integers():
    """Every sum of floats is `math.fsum`: builtin sum() of floats rounds by the Python version's rule."""
    calls = collections.Counter()
    for path in Path(hdspec.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum":
                around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                calls[path.name, max(around, key=lambda f: f.lineno).name if around else "<module>"] += 1
    assert calls == INTEGER_SUMS


def test_components_are_read_through_accessor():
    q = Quantity(1.0, "kHz", {"exp": 0.1})
    assert q.component("exp") == 0.1
    assert q.component("theor_QED") == 0.0


def test_open_component_names_flow_through():
    q = Quantity(1.0, "kHz", {"other:fiber-link": 0.02})
    assert q.component("other:fiber-link") == 0.02
    assert q.total_uncertainty() == pytest.approx(0.02)


def test_component_validation():
    with pytest.raises(ValueError, match="non-empty"):
        Quantity(1.0, "kHz", {"": 0.1})
    with pytest.raises(ValueError, match=">= 0"):
        Quantity(1.0, "kHz", {"exp": -0.1})
    with pytest.raises(ValueError, match=">= 0"):
        Quantity(1.0, "kHz", {"exp": math.nan})
    with pytest.raises(ValueError):
        Quantity(math.inf, "kHz", {})


@settings(max_examples=40)
@given(a=quantity_st, b=quantity_st, c=quantity_st)
def test_combine_linear_is_associative(a, b, c):
    left = combine_linear([(1.0, combine_linear([(1.0, a), (1.0, b)])), (1.0, c)])
    right = combine_linear([(1.0, a), (1.0, combine_linear([(1.0, b), (1.0, c)]))])
    assert left.value == pytest.approx(right.value, rel=1e-9, abs=1e-9)
    for name in set(left.components) | set(right.components):
        assert left.component(name) == pytest.approx(right.component(name), rel=1e-9, abs=1e-12)


def test_combine_linear_weights_components_in_quadrature():
    a = Quantity(10.0, "kHz", {"exp": 0.19})
    b = Quantity(20.0, "kHz", {"exp": 0.26})
    q = combine_linear([(0.5, a), (0.5, b)])
    assert q.value == 15.0
    assert q.component("exp") == pytest.approx(math.hypot(0.19 / 2, 0.26 / 2))
    assert q.component("exp") == pytest.approx(0.16101, abs=1e-5)


def test_combine_linear_keeps_channels_separate():
    a = Quantity(1.0, "kHz", {"exp": 0.1, "theor_QED": 0.5})
    b = Quantity(2.0, "kHz", {"exp": 0.2})
    q = combine_linear([(1.0, a), (-1.0, b)])
    assert q.value == -1.0
    assert q.component("exp") == pytest.approx(math.hypot(0.1, 0.2))
    assert q.component("theor_QED") == 0.5  # sqrt((1.0 * 0.5) ** 2 + 0.0)


def test_combine_linear_rejects_mixed_units_and_empty():
    with pytest.raises(ValueError, match="mixed units"):
        combine_linear([(1.0, Quantity(1.0, "kHz")), (1.0, Quantity(1.0, "Hz"))])
    with pytest.raises(ValueError, match="at least one"):
        combine_linear([])


@settings(max_examples=40)
@given(q=quantity_st)
def test_json_roundtrip(q):
    back = Quantity.from_json(q.to_json())
    assert back.value == q.value
    assert back.unit == q.unit
    assert back.components == q.components


def test_json_defaults():
    q = Quantity.from_json('{"value": 2.5}')
    assert q.unit == "kHz"
    assert q.components == {}


def test_parenthetical_rendering():
    q = Quantity(58605013478.03, "kHz", {"exp": 0.19})
    assert parenthetical(q) == "58605013478.03(19)_exp kHz"
    bare = Quantity(3.5, "kHz")
    assert parenthetical(bare) == "3.5 kHz"


def test_parenthetical_switches_to_exponent_form_from_1e15():
    assert parenthetical(Quantity(999999999999999.9, "kHz", {"exp": 0.15})) == "999999999999999.88(15)_exp kHz"
    assert parenthetical(Quantity(1e15, "kHz", {"exp": 0.15})) == "1.000000e+15(1.5e-01)_exp kHz"
    assert parenthetical(Quantity(5.86e10, "kHz", {"exp": 0.16, "theor_spin": 1e15})) == (
        "5.860000e+10(1.6e-01)_exp(1.0e+15)_theor_spin kHz"
    )
    assert parenthetical(Quantity(-1.7e308, "kHz", {"exp": 1.7e308})) == "-1.700000e+308(1.7e+308)_exp kHz"


def test_parenthetical_prints_an_exact_zero_component_as_zero():
    assert parenthetical(Quantity(1.0, "kHz", {"exp": 0.0})) == "1.00(0)_exp kHz"
    # a non-zero component below the last digit still shows one unit of it
    assert parenthetical(Quantity(1.0, "kHz", {"exp": 0.1, "theor_QED": 1e-9, "theor_spin": 0.0})) == (
        "1.00(10)_exp(1)_theor_QED(0)_theor_spin kHz"
    )


def test_parenthetical_orders_components_by_name():
    q = Quantity(1.0, "kHz", {"theor_spin": 0.85, "exp": 0.16})
    text = parenthetical(q)
    assert text.index("_exp") < text.index("_theor_spin")


@pytest.mark.parametrize(
    "fault, detail",
    [
        (lambda: np.float64(1e308) * np.float64(10.0), "overflow encountered in scalar multiply"),
        (lambda: np.array([1e308]) ** 2, "overflow encountered in square"),
        (lambda: np.array([0.0]) / np.array([0.0]), "invalid value encountered in divide"),
        (lambda: math.exp(1e308), "math range error"),
        (lambda: 10.0 ** 400, "Numerical result out of range"),
        (lambda: 1.0 / 0.0, "float division by zero"),
        (lambda: finite("x", 1e308 * 10.0), "x = inf"),
    ],
    ids=["numpy-scalar", "numpy-array", "numpy-invalid", "math", "pow", "division", "finite"],
)
def test_overflow_guard_names_the_step_for_numpy_and_python_arithmetic(fault, detail):
    with pytest.raises(ValueError) as exc:
        with overflow_as_value_error("the step"):
            fault()
    if detail.startswith("overflow encountered in scalar"):  # numpy < 1.25 words a scalar operation otherwise
        assert str(exc.value).startswith("the step overflows float64 (overflow encountered in ")
    else:
        assert str(exc.value) == f"the step overflows float64 ({detail})"


def test_overflow_guard_leaves_other_errors_and_numpy_state_alone():
    before = np.geterr()
    with pytest.raises(RuntimeError, match="^not arithmetic$"):
        with overflow_as_value_error("the step"):
            raise RuntimeError("not arithmetic")
    with overflow_as_value_error("the step"):
        assert 1e308 * 10.0 == math.inf  # a Python float overflows in silence; `finite` is what catches it
    assert np.geterr() == before


def test_overflow_guard_does_not_load_numpy():
    script = (
        "import sys\n"
        "from hdspec.quantity import finite, overflow_as_value_error\n"
        "try:\n"
        "    with overflow_as_value_error('the step'):\n"
        "        finite('x', 1e308 * 10.0)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = run_python("-c", script)
    assert proc.stdout == "the step overflows float64 (x = inf)\nFalse\n", proc.stderr


def _table_of_line_12():
    coeffs = HyperfineCoefficients(0, 0, {4: 1.0, 5: 2.0})
    row = TransitionSensitivities("12", dict.fromkeys(range(1, 10), 0.0), dict.fromkeys(range(1, 10), 0.0))
    return SensitivityTable(coeffs, coeffs, {"12": row})


# each check of a record constructor in the package, with the message it gives
CONSTRUCTOR_FAULTS = [
    (lambda: Quantity(math.inf), "value must be finite, got inf"),
    (lambda: Quantity(1.0, "kHz", {"": 0.1}), "component names must be non-empty strings, got ''"),
    (lambda: Quantity(1.0, "kHz", {"exp": -0.1}), "component 'exp' must be a finite value >= 0, got -0.1"),
    (lambda: HyperfineCoefficients(0, 0, {10: 1.0}), "coefficient index must be 1..9, got 10"),
    (lambda: HyperfineCoefficients(0, 0, {4: math.nan}), "coefficient E4 must be finite, got nan"),
    (lambda: HyperfineCoefficients(0, 0, {4: 1.0}, {4: 0.0}), "bad fractional-uncertainty override eps_E4 = 0.0"),
    (lambda: HyperfineCoefficients(0, 0, {4: 1.0, 1: 2.0}), "N=0 level admits only E4, E5; got nonzero E1"),
    (lambda: SpinUncertaintyParams(eps_bp=-1.0), "spin-uncertainty parameter eps_bp must be finite and > 0, got -1.0"),
    # NaN passes a `<= 0` test, and would show only later as an overflow of u_spin
    (lambda: SpinUncertaintyParams(eps_fermi=math.nan), "spin-uncertainty parameter eps_fermi must be finite and > 0, got nan"),
    (lambda: SpinUncertaintyParams(u1_prime=math.inf), "spin-uncertainty parameter u1_prime must be finite and > 0, got inf"),
    (lambda: SpinUncertaintyParams(eps_bp=-math.inf), "spin-uncertainty parameter eps_bp must be finite and > 0, got -inf"),
    (lambda: CarrierModel(0.0), "radial spread must be positive, got 0.0"),
    (lambda: CompositeInput(*[Quantity(1.0)] * 4, _table_of_line_12()), "sensitivity table lacks transition 16"),
    (lambda: Constant(1.0, -0.1), "constant uncertainty must be >= 0"),
    (lambda: ScalingModel(1.0, 1.0, beta=-0.4), "beta = -0.4 outside the physical window (-0.5, -0.45)"),
    (
        lambda: ShiftEntry("x", 0.0, 0.1, "guess"),
        "basis must be one of ('measured-extrapolation', 'theoretical-bound', 'set-to-zero'), got 'guess'",
    ),
    (lambda: ShiftEntry("x", 0.0, -0.1, "theoretical-bound"), "entry uncertainty must be >= 0"),
    (lambda: ShiftEntry("x", 0.1, 0.1, "set-to-zero"), "set-to-zero entries carry no correction"),
    (lambda: SpectrumPoint(0.0, 0.1, -1.0), "sem must be >= 0"),
    (lambda: LaserLock(0, 1.0, 1, 1), "mode number must be a positive integer, got 0"),
    (lambda: LaserLock(1.5, 1.0, 1, 1), "mode number must be a positive integer, got 1.5"),
    (lambda: LaserLock(1, 1.0, 1, 0), "signs must be +1 or -1"),
    (lambda: CombParams(0.0, 0.0, ()), "repetition rate must be positive"),
    (lambda: FrequencyTimeSeries(0.0, [1.0, 2.0]), "sample interval must be positive"),
    (lambda: FrequencyTimeSeries(1.0, [1.0]), "need at least 2 samples"),
]


@pytest.mark.parametrize("build, message", CONSTRUCTOR_FAULTS, ids=[m for _, m in CONSTRUCTOR_FAULTS])
def test_record_constructors_refuse_bad_fields_with_their_message(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_records_compare_and_show_by_their_fields():
    q = Quantity(1.0, "kHz", {"exp": 0.1})
    assert q == Quantity(1.0, "kHz", {"exp": 0.1}) and q != Quantity(1.0, "Hz", {"exp": 0.1})
    assert q != (1.0, "kHz", {"exp": 0.1})
    assert repr(q) == "Quantity(value=1.0, unit='kHz', components={'exp': 0.1})"
    with pytest.raises(TypeError):
        hash(q)  # equal by value, and the components are a dict
    assert not hasattr(q, "__dict__")

