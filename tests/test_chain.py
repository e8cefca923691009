import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qmeas.chain import (
    AncillaScheme,
    FuzzyKraus,
    _eigensystem,
    _run_chain_batch,
    ancilla_branch_operators,
    fit_effective_quadratic,
    run_chain_ensemble,
    run_decoherence_chain,
    sample_fuzzy_shot,
    weak_ancilla_shot,
)
from qmeas.cli import main
from qmeas.chm import MonitoringModel, marginalize_readouts
from qmeas.errors import ValidationError
from qmeas.hilbert import (
    DensityMatrix,
    HermitianOperator,
    NonHermitianOperator,
    QuantumState,
    basis_state,
    pauli_z,
    trace_distance,
)
from qmeas.readout import TimeGrid


def _same_bits(x, y) -> bool:
    """Same dtype, shape and bytes; unlike np.array_equal, -0.0 is not +0.0."""
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestFuzzyShot:
    def test_povm_completeness_invariant(self):
        FuzzyKraus(pauli_z(), 0.1)  # validates on construction
        FuzzyKraus(HermitianOperator(np.diag([-1.0, 0.0, 2.0])), 0.5)

    def test_eigenstate_outcome_statistics(self):
        s = 0.2
        k = FuzzyKraus(pauli_z(), s)
        rng = np.random.default_rng(0)
        psi = basis_state(2, 0)  # eigenvalue +1
        outcomes = []
        for _ in range(4000):
            state, a, _ = sample_fuzzy_shot(k, psi, rng)
            outcomes.append(a)
            assert np.allclose(np.abs(state.amplitudes), [1.0, 0.0], atol=1e-12)
        outcomes = np.array(outcomes)
        sig = 1.0 / (2 * np.sqrt(s))
        assert np.mean(outcomes) == pytest.approx(1.0, abs=4 * sig / np.sqrt(4000))
        assert np.var(outcomes) == pytest.approx(1.0 / (4 * s), rel=0.1)

    def test_projective_limit(self):
        # sharp shot: outcome near an eigenvalue with Born weights, state
        # collapsed onto it
        k = FuzzyKraus(pauli_z(), 8.0)
        psi = QuantumState(np.array([0.6, 0.8], dtype=complex))
        rng = np.random.default_rng(1)
        hits = 0
        n = 3000
        for _ in range(n):
            state, a, _ = sample_fuzzy_shot(k, psi, rng)
            near_plus = a > 0.0
            hits += near_plus
            target = [1.0, 0.0] if near_plus else [0.0, 1.0]
            assert np.allclose(np.abs(state.amplitudes) ** 2, target, atol=1e-6)
        assert hits / n == pytest.approx(0.36, abs=3 * np.sqrt(0.36 * 0.64 / n))

    def test_identity_observable(self):
        with pytest.raises(ValidationError):
            # identity has a degenerate spectrum: chains refuse it
            sample_fuzzy_shot(
                FuzzyKraus(HermitianOperator(np.eye(2)), 0.1),
                basis_state(2, 0),
                np.random.default_rng(0),
            )

    def test_outcome_density_value(self):
        s = 0.3
        k = FuzzyKraus(pauli_z(), s)
        rng = np.random.default_rng(2)
        psi = QuantumState(np.array([0.6, 0.8], dtype=complex))
        _, a, density = sample_fuzzy_shot(k, psi, rng)
        expected = np.sqrt(2 * s / np.pi) * (
            0.36 * np.exp(-2 * s * (a - 1.0) ** 2) + 0.64 * np.exp(-2 * s * (a + 1.0) ** 2)
        )
        assert density == pytest.approx(expected, rel=1e-12)


class TestGuards:
    def test_completeness_guard_says_to_reduce_the_strength(self):
        with pytest.raises(
            ValidationError,
            match=r"defect 0.202 exceeds 1e-8: \[chain\] strength 2 .*reduce the strength or the spread$",
        ):
            FuzzyKraus(HermitianOperator(np.diag([0.0, 10.0])), 2.0)
        FuzzyKraus(HermitianOperator(np.diag([0.0, 6.0])), 2.0)  # a narrower spread passes

    def test_degeneracy_guard_says_to_split_the_eigenvalues(self):
        k = FuzzyKraus(HermitianOperator(np.diag([1.0, 1.0, 2.0])), 0.1)
        with pytest.raises(
            ValidationError,
            match=r"give A distinct eigenvalues, gaps of at least 1e-9 \(the lindblad, chm and "
            r"sse-ensemble scenarios accept a degenerate A\)$",
        ):
            run_decoherence_chain(k, basis_state(3, 0), 5, seed=1)

    def test_negative_seed_says_to_use_a_seed_of_zero_or_more(self):
        k = FuzzyKraus(pauli_z(), 0.1)
        with pytest.raises(ValidationError, match=r"^seed -1 is negative; use a seed >= 0$"):
            run_decoherence_chain(k, basis_state(2, 0), 5, seed=-1)

    @pytest.mark.parametrize("a, strength, message", [
        ("0 0 ; 0 10", 2.0, r"defect 0.202 .*reduce the strength or the spread$"),
        ("1 0 ; 0 1", 0.1, r"give A distinct eigenvalues, .*accept a degenerate A\)$"),
    ])
    def test_chain_scenario_exits_1_with_one_error_line(self, tmp_path, capsys, a, strength, message):
        cfg = tmp_path / "chain.cfg"
        cfg.write_text(
            f"[run]\nscenario = chain\n[model]\na = {a}\n[chain]\nstrength = {strength}\n",
            encoding="utf-8",
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: fuzzy "), lines
        assert re.search(message, lines[0])


class TestDecoherenceChain:
    def test_eigenstate_collapses_immediately(self):
        k = FuzzyKraus(pauli_z(), 0.1)
        out = run_decoherence_chain(k, basis_state(2, 0), n_steps=3, seed=0)
        assert out.collapsed_to == 1  # index of eigenvalue +1 (ascending order)

    def test_same_seed_identical_readouts(self):
        k = FuzzyKraus(pauli_z(), 0.1)
        psi = QuantumState(np.array([0.6, 0.8], dtype=complex))
        o1 = run_decoherence_chain(k, psi, 100, seed=12)
        o2 = run_decoherence_chain(k, psi, 100, seed=12)
        assert np.array_equal(o1.readouts, o2.readouts)
        assert o1.collapsed_to == o2.collapsed_to

    def test_populations_follow_the_chain(self):
        k = FuzzyKraus(pauli_z(), 0.1)
        psi = QuantumState(np.array([0.6, 0.8], dtype=complex))
        out = run_decoherence_chain(k, psi, 100, seed=12)
        _, q = pauli_z().eigh()
        assert out.populations.shape == (101, 2)
        assert np.allclose(out.populations[0], np.abs(q.conj().T @ psi.amplitudes) ** 2, atol=1e-15)
        final = np.abs(q.conj().T @ out.final_state.amplitudes) ** 2
        assert np.allclose(out.populations[-1], final, atol=1e-12)

    def test_no_collapse_is_not_an_error(self):
        k = FuzzyKraus(pauli_z(), 1e-4)  # far too weak to collapse in 3 shots
        psi = QuantumState(np.array([0.6, 0.8], dtype=complex))
        out = run_decoherence_chain(k, psi, 3, seed=5)
        assert out.collapsed_to is None

    def test_born_frequencies(self):
        k = FuzzyKraus(pauli_z(), 0.1)
        psi = QuantumState(np.array([0.6, 0.8], dtype=complex))
        collapsed, _, mean_pops = run_chain_ensemble(k, psi, 500, 2000, seed_base=100)
        freq = np.mean(collapsed == 1)
        assert freq == pytest.approx(0.36, abs=3 * np.sqrt(0.36 * 0.64 / 2000))
        # Born martingale: mean populations constant in shot number
        se = np.sqrt(0.36 * 0.64 / 2000)
        assert np.max(np.abs(mean_pops[:, 1] - 0.36)) <= 3 * se

    def test_rotated_observable_collapse_frequencies(self):
        # observable with off-diagonal entries: Born weights live in its
        # eigenbasis, exercising the rotation plumbing
        a = HermitianOperator(np.array([[0.6, 0.8], [0.8, -0.6]]))  # eigenvalues +/-1
        k = FuzzyKraus(a, 0.1)
        psi0 = basis_state(2, 0)
        evals, q = a.eigh()
        weights = np.abs(q.conj().T @ psi0.amplitudes) ** 2
        collapsed, _, _ = run_chain_ensemble(k, psi0, 500, 2000, seed_base=300)
        for m in (0, 1):
            freq = np.mean(collapsed == m)
            sig = np.sqrt(weights[m] * (1 - weights[m]) / 2000)
            assert freq == pytest.approx(weights[m], abs=3 * sig)

    def test_collapse_threshold_insensitive(self):
        k = FuzzyKraus(pauli_z(), 0.1)
        psi = QuantumState(np.array([0.6, 0.8], dtype=complex))
        freqs = []
        for thr in (1e-3, 1e-4, 1e-5):
            collapsed, _, _ = run_chain_ensemble(k, psi, 500, 1000, seed_base=7, collapse_threshold=thr)
            freqs.append(np.mean(collapsed == 1))
        assert max(freqs) - min(freqs) <= 0.01

    def test_composition_matches_continuous_monitoring(self):
        # n shots of strength s == continuous monitoring at kappa*T = n*s
        s, n_shots = 0.05, 10
        k = FuzzyKraus(pauli_z(), s)
        psi = QuantumState(np.array([0.6, 0.8], dtype=complex))
        _, pops, _ = run_chain_ensemble(k, psi, n_shots, 4000, seed_base=50, collapse_threshold=1e-12)
        # ensemble mean of the final projector: reconstruct off-diagonal decay
        # from the dephasing channel prediction
        model = MonitoringModel(HermitianOperator(np.zeros((2, 2))), pauli_z(), 1.0)
        grid = TimeGrid(0.0, s, n_shots)  # kappa*dt = s per slice
        ref = marginalize_readouts(model, DensityMatrix.from_state(psi), grid)[-1]
        # eigenspace populations are martingales; compare their means
        assert np.mean(pops[:, 1]) == pytest.approx(0.36, abs=3 * np.sqrt(0.36 * 0.64 / 4000))
        assert ref.entries[0, 0].real == pytest.approx(0.36, abs=1e-12)
        # and the coherence decays as exp(-(kappa T/2) gap^2) = exp(-n s gap^2 / 2)
        assert abs(ref.entries[0, 1]) == pytest.approx(
            0.48 * np.exp(-0.5 * n_shots * s * 4.0), rel=1e-10
        )


class TestWeakAncilla:
    def test_zero_coupling_single_branch(self):
        sch = AncillaScheme(0.0, 1)
        branches = weak_ancilla_shot(sch, pauli_z(), basis_state(2, 0))
        assert len(branches) == 1
        state, p, outcome = branches[0]
        assert p == pytest.approx(1.0)
        assert outcome == 0
        assert np.allclose(state.amplitudes, basis_state(2, 0).amplitudes)

    def test_eigenstate_outcome_probability(self):
        g = 0.3
        branches = weak_ancilla_shot(AncillaScheme(g, 1), pauli_z(), basis_state(2, 0))
        probs = {o: p for _, p, o in branches}
        assert probs[1] == pytest.approx(np.sin(g * 1.0) ** 2, abs=1e-12)

    def test_half_half_at_quarter_pi(self):
        branches = weak_ancilla_shot(AncillaScheme(np.pi / 4, 1), pauli_z(), basis_state(2, 0))
        probs = {o: p for _, p, o in branches}
        assert probs[1] == pytest.approx(0.5, abs=1e-12)

    def test_branch_completeness(self):
        a = HermitianOperator(np.diag([-1.0, 0.0, 2.0]))
        m0, m1 = ancilla_branch_operators(a, 0.2)
        assert np.allclose(m0.conj().T @ m0 + m1.conj().T @ m1, np.eye(3), atol=1e-12)

    def test_weakness_condition(self):
        with pytest.raises(ValidationError, match="weakness"):
            weak_ancilla_shot(AncillaScheme(1.0, 1), pauli_z(), basis_state(2, 0))

    def test_matches_full_tensor_coupling(self):
        # explicit system x probe unitary agrees with the closed-form branches
        a = HermitianOperator(np.diag([-1.0, 0.0, 2.0]))
        g = 0.15
        sy = np.array([[0.0, -1j], [1j, 0.0]])
        u = expm(-1j * g * np.kron(a.entries, sy))
        psi = QuantumState.from_vector(np.array([0.5, 0.5, np.sqrt(0.5)], dtype=complex))
        joint = u @ np.kron(psi.amplitudes, np.array([1.0, 0.0]))
        m0, m1 = ancilla_branch_operators(a, g)
        assert np.allclose(joint[0::2], m0 @ psi.amplitudes, atol=1e-12)
        assert np.allclose(joint[1::2], m1 @ psi.amplitudes, atol=1e-12)


class TestQuadraticFit:
    def test_recovers_exact_quadratic(self):
        a = HermitianOperator(np.diag([-1.0, 0.0, 2.0]))
        kappa, center, t_total = 0.7, 0.5, 3.0
        gamma = kappa * (np.diag(a.entries).real - center) ** 2 * t_total
        op = NonHermitianOperator(-1j * np.diag(gamma))
        kappa_eff, offset, resid = fit_effective_quadratic(op, a, center=center, total_time=t_total)
        assert kappa_eff == pytest.approx(kappa, rel=1e-12)
        assert offset == pytest.approx(0.0, abs=1e-12)
        assert resid <= 1e-12

    def test_two_levels_fit_is_degenerate(self):
        # two points, two parameters: residual identically zero whenever the
        # center is off the spectral midpoint (distinct predictors)
        gamma = np.array([0.313, 1.904])
        op = NonHermitianOperator(-1j * np.diag(gamma))
        _, _, resid = fit_effective_quadratic(op, pauli_z(), center=0.25)
        assert resid <= 1e-12

    def test_rejects_non_diagonal_input(self):
        a = HermitianOperator(np.diag([-1.0, 0.0, 2.0]))
        m = -1j * np.diag([0.1, 0.2, 0.3]).astype(complex)
        m[0, 1] = 0.05
        with pytest.raises(ValidationError, match="diagonal"):
            fit_effective_quadratic(NonHermitianOperator(m), a)

    def test_postselected_series_universality(self):
        a = HermitianOperator(np.diag([-1.0, 0.0, 2.0]))
        g, n = 0.05, 400
        m0, _ = ancilla_branch_operators(a, g)
        cumulative = np.linalg.matrix_power(m0, n)
        evals, q = np.linalg.eigh(cumulative)
        heff_t = NonHermitianOperator(1j * (q * np.log(evals)) @ q.conj().T)
        kappa_eff, _, resid = fit_effective_quadratic(heff_t, a, total_time=float(n))
        oracle = g**2 / 2
        assert kappa_eff == pytest.approx(oracle, rel=0.05)
        gap_sq_t = kappa_eff * 4.0 * n
        assert resid <= 1e-3 * gap_sq_t


def _reference_chain_batch(k, psi0, n_steps, seeds, collapse_threshold):
    """The chain batch on fresh arrays, frozen as it was before its scratch
    was preallocated: final amplitudes in the eigenbasis of A, and population
    sums over the whole batch, added in seed order."""
    evals, q = _eigensystem(k)
    b = len(seeds)
    us = np.empty((b, n_steps))
    zs = np.empty((b, n_steps))
    for i, s in enumerate(seeds):
        gen = np.random.Generator(np.random.Philox(key=int(s)))
        us[i] = gen.random(n_steps)
        zs[i] = gen.standard_normal(n_steps)
    amps = np.tile(q.conj().T @ psi0.amplitudes, (b, 1))
    readouts = np.empty((b, n_steps))
    collapsed = np.full(b, -1, dtype=int)
    sigma = 1.0 / (2.0 * np.sqrt(k.strength))
    pop_sums = np.zeros((n_steps + 1, k.dim))
    pops = np.abs(amps) ** 2
    pop_sums[0] = pops.sum(axis=0)
    for step in range(n_steps):
        cum = np.cumsum(pops, axis=1)
        idx = np.minimum((us[:, step, None] > cum).sum(axis=1), len(evals) - 1)
        a = evals[idx] + zs[:, step] * sigma
        readouts[:, step] = a
        amps = amps * np.exp(-k.strength * (evals[None, :] - a[:, None]) ** 2)
        amps = amps / np.sqrt((np.abs(amps) ** 2).sum(axis=1))[:, None]
        pops = np.abs(amps) ** 2
        pop_sums[step + 1] = pops.sum(axis=0)
        top = pops.max(axis=1)
        hit = (top > 1.0 - collapse_threshold) & (collapsed < 0)
        collapsed[hit] = pops.argmax(axis=1)[hit]
    return amps, readouts, collapsed, pop_sums


def _reference_ensemble(k, psi0, n_steps, n_chains, seed_base, collapse_threshold=1e-4):
    """The serial ensemble, frozen: blocks of 2048 chains, one sequential sum
    of the populations over each block; final populations straight from the
    eigenbasis amplitudes."""
    seeds = [seed_base + i for i in range(n_chains)]
    collapsed_all = np.empty(n_chains, dtype=int)
    pops_final = np.empty((n_chains, k.dim))
    pop_sums = np.zeros((n_steps + 1, k.dim))
    for lo in range(0, n_chains, 2048):
        chunk = seeds[lo : lo + 2048]
        amps, _, collapsed, sums = _reference_chain_batch(k, psi0, n_steps, chunk, collapse_threshold)
        collapsed_all[lo : lo + len(chunk)] = collapsed
        pops_final[lo : lo + len(chunk)] = np.abs(amps) ** 2
        pop_sums += sums
    return collapsed_all, pops_final, pop_sums / n_chains


def _random_case(dim, case_seed, strength):
    """A nondegenerate observable of spectral norm about 1 (eigenvalue gaps
    at least 0.05, random eigenbasis) and a random state."""
    rng = np.random.default_rng(case_seed)
    evals = np.cumsum(rng.uniform(0.05, 1.0, dim))
    evals = 2.0 * (evals - evals[0]) / (evals[-1] - evals[0]) - 1.0
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    a = HermitianOperator((q * evals) @ q.conj().T)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return FuzzyKraus(a, strength), QuantumState(v / np.linalg.norm(v))


class TestAgainstFrozenBatch:
    @settings(max_examples=30, deadline=None)
    @given(
        dim=st.integers(2, 8),
        case_seed=st.integers(0, 2**32 - 1),
        strength=st.floats(0.05, 1.0),
        batch=st.sampled_from([1, 65, 130]),
        n_steps=st.integers(1, 40),
        threshold=st.sampled_from([1e-4, 1e-2, 0.3]),
        seed_base=st.integers(0, 2**40),
    )
    @example(dim=64, case_seed=7, strength=0.5, batch=130, n_steps=30, threshold=1e-2, seed_base=5)
    def test_per_chain_bits(self, dim, case_seed, strength, batch, n_steps, threshold, seed_base):
        k, psi0 = _random_case(dim, case_seed, strength)
        seeds = range(seed_base, seed_base + batch)
        finals, readouts, collapsed, chunk_sums = _run_chain_batch(k, psi0, n_steps, seeds, threshold)
        ref_finals, ref_readouts, ref_collapsed, ref_sums = _reference_chain_batch(
            k, psi0, n_steps, seeds, threshold
        )
        assert _same_bits(collapsed, ref_collapsed)
        assert _same_bits(readouts, ref_readouts)
        assert _same_bits(finals, ref_finals)
        assert chunk_sums.shape == (-(-batch // 64), n_steps + 1, dim)
        if batch == 1:
            first = run_decoherence_chain(k, psi0, n_steps, seed_base, threshold)
            assert _same_bits(first.populations, ref_sums)
            ref_state = (ref_finals @ k.kernel.q.T)[0]
            assert _same_bits(first.final_state.amplitudes, ref_state)
        got = run_chain_ensemble(k, psi0, n_steps, batch, seed_base, threshold)
        ref = _reference_ensemble(k, psi0, n_steps, batch, seed_base, threshold)
        assert _same_bits(got[0], ref[0])
        assert _same_bits(got[1], ref[1])
        assert np.max(np.abs(got[2] - ref[2])) <= 1e-13


class TestEnsembleWorkers:
    def test_bits_do_not_depend_on_worker_count(self):
        # 150 chains: two full chunks and a partial one, alone in a share at 3 workers
        k, psi0 = _random_case(3, 11, 0.3)
        runs = [run_chain_ensemble(k, psi0, 200, 150, 40, 1e-3, workers=w) for w in (1, 2, 3)]
        for got in runs[1:]:
            for x, y in zip(got, runs[0]):
                assert _same_bits(x, y)
        # 65 chains at 2 workers: a share of one chain
        one, two = (run_chain_ensemble(k, psi0, 200, 65, 40, 1e-3, workers=w) for w in (1, 2))
        for x, y in zip(one, two):
            assert _same_bits(x, y)
        ref = _reference_ensemble(k, psi0, 200, 150, 40, 1e-3)
        assert _same_bits(runs[0][0], ref[0]) and _same_bits(runs[0][1], ref[1])
        assert np.max(np.abs(runs[0][2] - ref[2])) <= 1e-13

    @pytest.mark.parametrize("n_chains,seed_base,message", [
        (0, 1, "n_chains must be >= 1"),
        (150, -1, "seed_base -1 is negative; use a seed >= 0"),
    ])
    def test_bad_input_rejected_before_the_pool_starts(self, monkeypatch, n_chains, seed_base, message):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        k, psi0 = FuzzyKraus(pauli_z(), 0.1), basis_state(2, 0)
        with pytest.raises(ValidationError, match=message):
            run_chain_ensemble(k, psi0, 10, n_chains, seed_base, workers=2)

    def test_cli_files_do_not_depend_on_worker_count(self, tmp_path):
        cfg = tmp_path / "chain.cfg"
        cfg.write_text(
            "[run]\nscenario = chain\nseed = 77\n[model]\na = 0 0 0 ; 0 1 0 ; 0 0 3\n"
            "psi0 = 0.6 0.48 0.64\n[chain]\nstrength = 0.3\nn_shots = 120\nn_chains = 150\n",
            encoding="utf-8",
        )
        outs = [tmp_path / f"w{w}" for w in (1, 2)]
        for w, out in zip((1, 2), outs):
            assert main(["--config", str(cfg), "--out", str(out), "--workers", str(w), "--quiet"]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == ["chain.csv", "summary.json"]
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
