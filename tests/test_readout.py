import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmeas.chm import MonitoringModel, generalized_unitarity_defect
from qmeas.errors import RecordParseError, ValidationError
from qmeas.hilbert import HermitianOperator, pauli_z
from qmeas.readout import (
    FuzzySlice,
    ReadoutRecord,
    TimeGrid,
    constant_record,
    parse_record,
    reference_log_weight,
    serialize_record,
)


class TestGridAndRecord:
    def test_grid_validation(self):
        with pytest.raises(ValidationError, match="dt must be positive"):
            TimeGrid(0.0, 0.0, 5)
        with pytest.raises(ValidationError):
            TimeGrid(0.0, 0.1, 0)

    @pytest.mark.parametrize("n_steps", [2.5, 3.0, True, False, "3", None])
    def test_n_steps_must_be_an_integer(self, n_steps):
        # TimeGrid(0, 0.1, 2.5) would have 4 nodes, which no record can match
        with pytest.raises(ValidationError, match=r"^n_steps must be an integer >= 1, got "):
            TimeGrid(0.0, 0.1, n_steps)
        assert TimeGrid(0.0, 0.1, np.int64(3)).times().size == 4

    def test_constant_record(self):
        rec = constant_record(TimeGrid(0.0, 0.25, 4), 1.0)
        assert np.array_equal(rec.values, [1.0, 1.0, 1.0, 1.0])
        rec = constant_record(TimeGrid(0.0, 1.0, 1), 0.0)
        assert np.array_equal(rec.values, [0.0])
        rec = constant_record(TimeGrid(0.0, 0.5, 3), -2.5)
        assert np.array_equal(rec.values, [-2.5, -2.5, -2.5])

    def test_record_length_must_match_grid(self):
        with pytest.raises(ValidationError):
            ReadoutRecord(TimeGrid(0.0, 0.1, 3), np.array([1.0, 2.0]))


class TestReferenceWeight:
    def test_unity_normalization(self):
        rec = constant_record(TimeGrid(0.0, np.pi / 2, 1), 0.0)
        assert reference_log_weight(rec, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_product_rule(self):
        n, dt, kappa = 7, 0.3, 2.5
        rec = constant_record(TimeGrid(0.0, dt, n), 1.0)
        assert reference_log_weight(rec, kappa) == pytest.approx(
            n * 0.5 * np.log(2 * kappa * dt / np.pi)
        )

    def test_additive_under_concatenation(self):
        kappa = 0.7
        r1 = constant_record(TimeGrid(0.0, 0.2, 3), 0.0)
        r2 = constant_record(TimeGrid(0.6, 0.2, 5), 0.0)
        joint = constant_record(TimeGrid(0.0, 0.2, 8), 0.0)
        assert reference_log_weight(joint, kappa) == pytest.approx(
            reference_log_weight(r1, kappa) + reference_log_weight(r2, kappa)
        )

    def test_rejects_nonpositive_kappa(self):
        rec = constant_record(TimeGrid(0.0, 0.1, 1), 0.0)
        with pytest.raises(ValidationError):
            reference_log_weight(rec, 0.0)

    def test_single_step_completeness_quadrature(self):
        # the measure normalization makes integral da w(a) R_a^2 = identity
        model = MonitoringModel(HermitianOperator(np.zeros((2, 2))), pauli_z(), 0.3)
        assert generalized_unitarity_defect(model, 0.1, 40) <= 1e-10
        three = HermitianOperator(np.diag([0.0, 1.0, 3.0]))
        model3 = MonitoringModel(HermitianOperator(np.zeros((3, 3))), three, 1.0)
        assert generalized_unitarity_defect(model3, 0.05, 40) <= 1e-9


class TestSerialization:
    def test_exact_example(self):
        rec = ReadoutRecord(TimeGrid(0.0, 0.5, 1), np.array([1.0]))
        assert serialize_record(rec) == "t,a\n0.25,1\n"

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        grid = TimeGrid(-1.25, 0.013, 100)
        rec = ReadoutRecord(grid, rng.standard_normal(100) * 10)
        back = parse_record(serialize_record(rec))
        assert np.array_equal(back.values, rec.values)
        assert back.grid.n_steps == 100
        assert back.grid.dt == pytest.approx(grid.dt, rel=1e-12)
        assert back.grid.t0 == pytest.approx(grid.t0, rel=1e-12)

    @given(
        n=st.integers(2, 40),
        dt=st.floats(1e-4, 10.0),
        t0=st.floats(-5.0, 5.0),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, n, dt, t0, seed):
        rng = np.random.default_rng(seed)
        rec = ReadoutRecord(TimeGrid(t0, dt, n), rng.uniform(-100, 100, size=n))
        back = parse_record(serialize_record(rec))
        assert np.array_equal(back.values, rec.values)

    def test_single_row_needs_declared_dt(self):
        # one row has no spacing to set dt, and a record takes no declared dt
        rec = ReadoutRecord(TimeGrid(0.0, 0.5, 1), np.array([1.0]))
        message = r"^row 1: .*declared dt.* at least two rows, whose t spacing sets dt$"
        with pytest.raises(RecordParseError, match=message):
            parse_record(serialize_record(rec))
        back = parse_record(serialize_record(ReadoutRecord(TimeGrid(0.0, 0.5, 2), np.ones(2))))
        assert (back.grid.t0, back.grid.dt, back.grid.n_steps) == (0.0, 0.5, 2)

    def test_grid_mismatch_reports_row(self):
        # each spacing is within 1e-9 of the first, so the spacing check
        # passes, but the drift adds up to 1.8e-9 off the grid by row 4
        ts = 0.05 + np.cumsum([0.0, 0.1, 0.1 + 0.9e-9, 0.1 + 0.9e-9])
        text = "t,a\n" + "".join(f"{t:.17g},1\n" for t in ts)
        with pytest.raises(RecordParseError, match=r"^row 4: time .* does not sit on the inferred grid"):
            parse_record(text)

    def test_malformed_rows(self):
        with pytest.raises(RecordParseError, match="header"):
            parse_record("a,t\n0.25,1\n")
        with pytest.raises(RecordParseError, match="row 1"):
            parse_record("t,a\n0.25,einsosieben\n")
        with pytest.raises(RecordParseError, match="non-monotonic"):
            parse_record("t,a\n0.25,1\n0.25,2\n")
        with pytest.raises(RecordParseError, match="two comma"):
            parse_record("t,a\n0.25,1,9\n")


def _frozen_completeness_defect(evals, scale, order):
    """readout.completeness_defect as it was before the slice kernel, frozen."""
    center = 0.5 * (evals[0] + evals[-1])
    b = scale * (evals - center)
    x, w = np.polynomial.hermite.hermgauss(order)
    s = np.einsum("i,im->m", w / np.sqrt(np.pi), np.exp(2.0 * np.outer(x, b) - b**2))
    return float(np.max(np.abs(s - 1.0)))


def _frozen_hermgauss_kernel(a_op, kappa, dt, order):
    """chm._hermgauss_kernel as it was before the slice kernel, frozen."""
    evals, q = a_op.eigh()
    center = 0.5 * (evals[0] + evals[-1])
    b = np.sqrt(2.0 * kappa * dt) * (evals - center)
    x, w = np.polynomial.hermite.hermgauss(order)
    g = np.exp(np.outer(x, b) - 0.5 * b**2)
    k = np.einsum("i,im,in->mn", w / np.sqrt(np.pi), g, g)
    return evals, q, k


def _random_observable(rng, dim, degenerate):
    """Eigenvalues in [-1, 1] in a random eigenbasis; with ``degenerate`` at
    least the first two coincide."""
    if degenerate:
        evals = rng.choice([-1.0, 0.0, 1.0], dim)
        evals[1] = evals[0]
    else:
        evals = rng.uniform(-1.0, 1.0, dim)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return HermitianOperator((q * evals) @ q.conj().T)


class TestFuzzySlice:
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        degenerate=st.booleans(),
        log10_kdt=st.floats(-4.0, 1.5),
        order=st.integers(10, 60),
        n_readouts=st.integers(1, 20),
    )
    @example(dim=3, seed=1, degenerate=False, log10_kdt=-3.0, order=40, n_readouts=5)
    @example(dim=3, seed=1, degenerate=True, log10_kdt=1.5, order=10, n_readouts=5)
    @settings(max_examples=60, deadline=None)
    def test_bits_match_the_frozen_copies(
        self, dim, seed, degenerate, log10_kdt, order, n_readouts
    ):
        rng = np.random.default_rng(seed)
        a_op = _random_observable(rng, dim, degenerate)
        kappa = 10.0 ** rng.uniform(-1.0, 1.0)
        dt = 10.0**log10_kdt / kappa
        kernel = FuzzySlice(a_op, kappa, dt)

        evals, q, k_ref = _frozen_hermgauss_kernel(a_op, kappa, dt, order)
        assert kernel.evals.tobytes() == evals.tobytes() and kernel.q.tobytes() == q.tobytes()
        assert kernel.dephasing_kernel(order).tobytes() == k_ref.tobytes()
        defect = kernel.completeness_defect(order)
        ref = _frozen_completeness_defect(evals, np.sqrt(2.0 * kappa * dt), order)
        assert np.float64(defect).tobytes() == np.float64(ref).tobytes()

        # a batch of readouts gives each row the bits of its own scalar call,
        # which are those of the factor formula the chain and chm sites wrote
        a = rng.uniform(-2.0, 2.0, n_readouts)
        rows = np.stack([kernel.factor(float(x)) for x in a])
        assert kernel.factor(a).tobytes() == rows.tobytes()
        out = np.empty((n_readouts, dim))
        assert kernel.factor(a, out=out) is out and out.tobytes() == rows.tobytes()
        assert rows[0].tobytes() == np.exp(-kappa * (evals - a[0]) ** 2 * dt).tobytes()
        shot = FuzzySlice(a_op, kappa, 1.0).factor(a[0])
        assert shot.tobytes() == np.exp(-kappa * (evals - a[0]) ** 2).tobytes()
        r = (q * np.exp(-kappa * (evals - a[0]) ** 2 * dt)) @ q.conj().T
        assert kernel.operator(a[0]).tobytes() == r.tobytes()

    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        degenerate=st.booleans(),
        log10_kdt=st.floats(-4.0, 1.5),
        shape=st.sampled_from([(1,), (7,), (3, 4)]),
    )
    @example(dim=3, seed=2, degenerate=True, log10_kdt=-1.0, shape=(3, 4))
    @settings(max_examples=60, deadline=None)
    def test_operator_on_an_array_is_each_scalar_call(self, dim, seed, degenerate, log10_kdt, shape):
        # R_a over an array of readouts, as the one-slice density takes it,
        # stacks the bits of the scalar calls that the sliced product makes
        rng = np.random.default_rng(seed)
        kappa = 10.0 ** rng.uniform(-1.0, 1.0)
        kernel = FuzzySlice(_random_observable(rng, dim, degenerate), kappa, 10.0**log10_kdt / kappa)
        a = rng.uniform(-2.0, 2.0, shape)
        r = kernel.operator(a)
        assert r.shape == (*shape, dim, dim)
        rows = np.stack([kernel.operator(float(x)) for x in a.ravel()]).reshape(r.shape)
        assert r.tobytes() == rows.tobytes()
