import dataclasses
import json

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import J2, congruent_n32, damped_mode, make_models, random_sym
from oqrisk import model as model_module
from oqrisk import report
from oqrisk.classical import classical_rs_rate_sde
from oqrisk.cumulants import cumulant_rate
from oqrisk.deviations import DeviationAnalysis
from oqrisk.errors import (
    ConfigError,
    DimensionMismatch,
    InvalidArgument,
    NoConvergence,
    NotPsd,
    NotSymmetric,
)
from oqrisk.fixtures import PAPER_EXAMPLE, paper_example_model
from oqrisk.model import (
    CcrMatrix,
    PhysicalParams,
    WeightMatrix,
    build_model,
    canonical_ccr,
    model_from_json,
    model_from_matrices,
    pr_residual,
    random_model,
)
from oqrisk.quartic import mean_rate

PAPER_EIGS = np.array([-4.2068, -1.3302, -0.5532 - 2.5929j, -0.5532 + 2.5929j])


class TestBuildModel:
    def test_tiny_closed_form(self, tiny):
        assert np.array_equal(tiny.a, -np.eye(2))
        assert np.array_equal(tiny.b, J2)

    def test_paper_eigenvalues(self, paper):
        model, _ = paper
        eigs = np.sort_complex(np.linalg.eigvals(model.a))
        target = np.sort_complex(PAPER_EIGS)
        assert np.abs(eigs - target).max() < 1e-3

    def test_decoupled_field(self):
        rng = np.random.default_rng(0)
        r = rng.standard_normal((4, 4))
        r = 0.5 * (r + r.T)
        model = model_from_matrices(canonical_ccr(4).theta, r, np.zeros((4, 4)))
        assert np.array_equal(model.b, np.zeros((4, 4)))
        assert np.allclose(model.a, 2.0 * model.theta @ r)

    def test_deterministic_bitwise(self, paper):
        model, _ = paper
        again, _ = paper_example_model()
        assert np.array_equal(model.a, again.a)
        assert np.array_equal(model.b, again.b)

    def test_omega_eigenvalues(self):
        for m in (2, 4, 6):
            model = model_from_matrices(
                canonical_ccr(m).theta, np.zeros((m, m)), np.eye(m)
            )
            w = np.linalg.eigvalsh(model.omega)
            dist = np.minimum(np.abs(w), np.abs(w - 2.0))
            assert dist.max() < 1e-12


class TestValidation:
    def test_rejects_nonantisymmetric_theta(self):
        with pytest.raises(NotSymmetric):
            CcrMatrix(np.array([[0.0, 1.0], [-1.0 + 1e-15, 0.0]]))

    def test_rejects_singular_theta(self):
        with pytest.raises(InvalidArgument):
            CcrMatrix(np.zeros((2, 2)))

    def test_rejects_odd_order(self):
        with pytest.raises(DimensionMismatch):
            CcrMatrix(np.zeros((3, 3)))

    def test_rejects_asymmetric_energy(self):
        with pytest.raises(NotSymmetric):
            PhysicalParams(r=np.array([[0.0, 1.0], [0.0, 0.0]]), m=np.eye(2))

    def test_rejects_odd_channels(self):
        with pytest.raises(DimensionMismatch):
            PhysicalParams(r=np.zeros((2, 2)), m=np.zeros((1, 2)))

    def test_rejects_mismatched_dims(self):
        with pytest.raises(DimensionMismatch):
            build_model(canonical_ccr(2), PhysicalParams(r=np.zeros((4, 4)), m=np.eye(4)))

    @pytest.mark.parametrize("analysis", [
        lambda model, pi: model.weight_facts(pi),
        mean_rate,
        lambda model, pi: cumulant_rate(model, pi, 2),
        lambda model, pi: classical_rs_rate_sde(model, pi, 1e-3),
        DeviationAnalysis,
    ], ids=["weight_facts", "mean_rate", "cumulant_rate", "classical_rs_rate_sde",
            "DeviationAnalysis"])
    def test_rejects_wrong_shape_weight(self, paper, analysis):
        # the 4-dimensional paper fixture with a 3 x 3 cost weight
        with pytest.raises(DimensionMismatch):
            analysis(paper[0], np.eye(3))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("analysis", [
        lambda model, pi: WeightMatrix(pi),
        lambda model, pi: cumulant_rate(model, pi, 2),
    ], ids=["WeightMatrix", "cumulant_rate"])
    def test_rejects_non_finite_weight(self, paper, analysis, bad, entry):
        # a symmetric weight with a NaN or inf entry: not reported as an
        # asymmetric one, and no inf - inf warning from the symmetry test
        pi = paper[1].copy()
        pi[entry] = pi[entry[::-1]] = bad
        with pytest.raises(InvalidArgument):
            analysis(paper[0], pi)

    def test_weight_facts_validates_once(self, paper):
        model = paper[0]
        with pytest.raises(NotSymmetric):
            model.weight_facts(np.triu(np.ones((4, 4))))
        facts = model.weight_facts(WeightMatrix(paper[1]))
        assert model.weight_facts(paper[1]) is facts
        assert not facts.pi.flags.writeable


    def test_indefinite_weight_is_not_psd(self, paper):
        model, pi = paper
        with pytest.raises(NotPsd):
            classical_rs_rate_sde(model, -pi, 1e-3)


class TestDensityPeak:
    """``density_peak`` bounds the top of ``density_eigs`` over the whole
    real line from above, within a relative gap of 1e-8."""

    GAP = 1.01e-8  # the certificate's 1e-8 plus rounding

    def test_paper_fixture_peak_is_on_the_negative_side(self, paper):
        facts = paper[0].weight_facts(paper[1])
        peak = facts.density_peak
        # 132.95716344785 is the top at its maximiser, refined by
        # minimize_scalar; a scan of lam >= 0 finds 117.76
        assert 132.95716344785 * (1 - 1e-12) <= peak <= 132.95716344785 * (1 + self.GAP)
        top = facts.density_eigs([-2.5261743])[0, -1]
        assert peak / (1 + self.GAP) <= top <= peak

    def test_eigs_solve_the_half_they_read(self, paper):
        # density_eigs solves (i lam - A) W0 = B U alone: the bits of the
        # first column half of density_factor's solve for B [U, conj U]
        lams = np.linspace(-12.0, 12.0, 301)
        for model, pi in (paper, congruent_n32()):
            facts = model.weight_facts(pi)
            w0 = model.density_factor(lams)[..., :model.m // 2]
            x = (facts.root @ w0.view(float)).view(complex)
            want = np.linalg.eigvalsh(2.0 * x @ x.conj().swapaxes(-1, -2))
            assert np.array_equal(facts.density_eigs(lams), want)

    def test_damped_mode_peak_at_its_resonance(self):
        model, pi = damped_mode(), np.diag([1.0, 2.0])
        facts = model.weight_facts(pi)
        assert 1000.0 <= facts.density_peak <= 1000.0 * (1 + self.GAP)
        top = facts.density_eigs([-10.0, 10.0])[:, -1]
        assert top.max() == pytest.approx(1000.0, rel=1e-12, abs=0.0)
        assert 1e-3 / (1 + self.GAP) <= 1.0 / facts.density_peak <= 1e-3
        assert model.weight_facts(np.zeros((2, 2))).density_peak == 0.0

    def test_no_two_sided_sample_exceeds_the_peak(self):
        for model, rng in make_models(seed=91, count=6):
            facts = model.weight_facts(random_sym(rng, model.n, psd=True))
            peak = facts.density_peak
            mu = model.eig.values
            # a resonance is about |Re(mu)| wide: sample it five times
            step = 0.2 * np.abs(mu.real).min()
            span = 2.0 * np.abs(mu).max() + 1.0
            lams = np.concatenate([np.arange(-span, span, step), mu.imag, -mu.imag])
            top = np.concatenate([facts.density_eigs(lams[k:k + 512])[:, -1]
                                  for k in range(0, lams.size, 512)])
            assert top.max() <= peak
            best = lams[np.argmax(top)]
            res = minimize_scalar(lambda x: -facts.density_eigs([x])[0, -1],
                                  bounds=(best - step, best + step), method="bounded",
                                  options={"xatol": 1e-10 * (1.0 + abs(best))})
            assert peak <= max(top.max(), -res.fun) * (1 + 2e-8)


class TestSteadyState:
    def test_one_eigendecomposition_per_model(self, monkeypatch):
        # the uncertainty certificate, the thin factor and the report's
        # eigenvalue floor read one eigh of P + i Theta
        model = paper_example_model()[0]
        calls, eigh, eigvalsh = [], np.linalg.eigh, np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append("eigh") or eigh(*a))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append("eigvalsh") or eigvalsh(*a))
        steady, block = model.steady, report._steady_block(model)
        thin = steady.thin
        assert calls == ["eigh"]
        assert block["quantum_cov_eig_floor"] == steady.eigvals[0] > 0.0
        assert np.abs(thin @ thin.conj().T - steady.quantum_cov).max() <= 1e-14


class TestPrResidual:
    def test_tiny_exact(self, tiny):
        assert pr_residual(tiny) <= 1e-14

    def test_paper(self, paper):
        assert pr_residual(paper[0]) <= 1e-10

    def test_tampered_model_violates(self, tiny):
        bad = dataclasses.replace(tiny, a=tiny.a + np.eye(2))
        assert pr_residual(bad) > 0.1

    def test_random_models_normalized(self):
        for model, _ in make_models(seed=101, count=200):
            scale = 1.0 + np.linalg.norm(model.a) * np.linalg.norm(model.theta)
            assert pr_residual(model) <= 1e-10 * scale


class TestStabilityMargin:
    def test_tiny(self, tiny):
        assert tiny.is_hurwitz
        assert tiny.spectral_abscissa == pytest.approx(-1.0, abs=1e-12)

    def test_paper(self, paper):
        assert paper[0].is_hurwitz
        assert paper[0].spectral_abscissa == pytest.approx(-0.5532, abs=1e-3)

    def test_marginal_zero_drift(self):
        model = model_from_matrices(0.5 * J2, np.zeros((2, 2)), np.zeros((2, 2)))
        assert not model.is_hurwitz
        assert model.spectral_abscissa == pytest.approx(0.0, abs=1e-14)

    def test_random_model_gives_up_with_a_typed_error(self, tiny, monkeypatch):
        # every draw builds a model whose drift is not stable, so the sampler
        # stops after its 20000 tries (the draws' own checks are skipped)
        marginal = dataclasses.replace(tiny, spectral_abscissa=0.0)
        monkeypatch.setattr(model_module, "PhysicalParams", lambda r, m: None)
        monkeypatch.setattr(model_module, "build_model", lambda ccr, params: marginal)
        with pytest.raises(NoConvergence, match="Hurwitz model"):
            random_model(np.random.default_rng(0), n=2)


class TestJsonIngestion:
    def test_round_trip(self, tiny):
        doc = {
            "n": 2,
            "m": 2,
            "theta": (0.5 * J2).tolist(),
            "R": np.zeros((2, 2)).tolist(),
            "M": np.eye(2).tolist(),
            "Pi": np.eye(2).tolist(),
        }
        model, pi = model_from_json(json.dumps(doc))
        assert np.array_equal(model.a, tiny.a)
        assert np.array_equal(pi, np.eye(2))

    def test_paper_fixture_document(self):
        doc = dict(PAPER_EXAMPLE)
        doc["theta"] = canonical_ccr(4).theta.tolist()
        model, pi = model_from_json(doc)
        ref, ref_pi = paper_example_model()
        assert np.array_equal(model.a, ref.a)
        assert np.array_equal(pi, ref_pi)

    def test_missing_field(self):
        with pytest.raises(ConfigError):
            model_from_json({"n": 2, "m": 2})

    def test_bad_shape(self):
        with pytest.raises(ConfigError):
            model_from_json(
                {"n": 2, "m": 2, "theta": [[0.0]], "R": [[0.0]], "M": [[0.0]]}
            )

    def test_nonfinite_rejected(self):
        doc = {
            "n": 2,
            "m": 2,
            "theta": [[0.0, 0.5], [-0.5, 0.0]],
            "R": [[float("nan"), 0.0], [0.0, 0.0]],
            "M": np.eye(2).tolist(),
        }
        with pytest.raises(ConfigError):
            model_from_json(doc)


def test_arrays_are_immutable(tiny):
    with pytest.raises(ValueError):
        tiny.a[0, 0] = 5.0
