"""Check power: each acceptance check is run on a known defect, injected
from the test by monkeypatching, and must reject it.  The verdicts are
asserted exactly, so a check that stops catching its defect, or starts
failing one it passed, is a finding; docs/formats.md tables the smallest
injected defect each check rejected.  A defect is never shrunk and a seed
never changed to make a test here pass."""

import numpy as np

from stoflow import experiments
from stoflow import lagrangian as lg
from stoflow import sde
from stoflow.config import ExperimentConfig
from stoflow.experiments import run_experiment

# the particles-p24 workload's config at seed 3
PARTICLES_P24 = dict(kind="equivalence", n=8, dt=0.05, horizon=0.25, gamma=3.0, c=0.5,
                     init_kind="taylor-green", eq_levels=3, eq_particles=24, seed=3)
# the isometry acceptance config
ISOMETRY_N4 = dict(kind="isometry", n=4, gamma=2.0, c=1.0, seed=20240601, ensemble=10_000)


def _slope(out) -> float:
    return float((out / "equivalence_summary.csv").read_text().splitlines()[1])


def test_residual_decay_slope_rejects_a_kick_five_percent_too_large(tmp_path, monkeypatch):
    # the particle kick, the Biot-Savart velocity of the Eulerian noise
    # curl, scaled by 1.05: the defect no longer decays with dt
    man = run_experiment(ExperimentConfig(**PARTICLES_P24), out_dir=tmp_path / "ok")
    assert man.acceptance == {"residual_decay_slope": True}
    kick = lg.field_from_coefficients
    monkeypatch.setattr(lg, "field_from_coefficients",
                        lambda spec, coeffs: 1.05 * kick(spec, coeffs))
    bad = run_experiment(ExperimentConfig(**PARTICLES_P24), out_dir=tmp_path / "bad")
    print(f"residual decay slope {_slope(tmp_path / 'ok'):.4f}, "
          f"with the kick x 1.05 {_slope(tmp_path / 'bad'):.4f}")
    assert abs(_slope(tmp_path / "ok") - 1.0138) < 1e-4
    assert abs(_slope(tmp_path / "bad") - 0.0502) < 1e-4
    assert bad.acceptance == {"residual_decay_slope": False}


def test_isometry_checks_on_a_noise_variance_five_percent_too_large(tmp_path, monkeypatch):
    # every draw of W(1) scaled by sqrt(1.05): the second-moment checks
    # reject it, the correlation and mean checks cannot see a variance
    draw = experiments.sample_coefficients
    monkeypatch.setattr(experiments, "sample_coefficients",
                        lambda *args: np.sqrt(1.05) * draw(*args))
    man = run_experiment(ExperimentConfig(**ISOMETRY_N4), out_dir=tmp_path)
    rows = dict(line.split(",") for line in (tmp_path / "isometry.csv").read_text().split())
    print({k: round(float(v), 2) for k, v in rows.items() if k.endswith("_z")})
    assert man.acceptance == {"ito_isometry": False, "mode_variances": False,
                              "cross_covariances": True, "zero_mean": True}


def _orders(out) -> dict:
    rows = [line.split(",") for line in (out / "convergence.csv").read_text().split()[1:]]
    return {name: float(order) for name, order, *_ in rows}


def test_heun_deterministic_rejects_a_corrector_that_reuses_the_predictor_drift(
        tmp_path, monkeypatch):
    # the corrector keeps b(t, x) in place of (b(t, x) + b(t + dt, xp))/2:
    # Euler's method in the drift, the noise still averaged.  Only the ODE
    # row sees it; it draws no noise, so its order does not depend on the seed
    cfg = ExperimentConfig(kind="convergence", seed=3)
    man = run_experiment(cfg, out_dir=tmp_path / "ok")
    assert man.acceptance == {"em-additive": True, "heun-stratonovich": True,
                              "heun-deterministic": True}

    def corrector_reusing_predictor_drift(problem, t, x, dW, dt):
        b0 = problem.drift(t, x)
        n0 = problem.diffusion(x, dW)
        n1 = problem.diffusion(x + b0 * dt + n0, dW)
        return x + b0 * dt + 0.5 * (n0 + n1)

    monkeypatch.setitem(sde._STEPPERS, "heun", corrector_reusing_predictor_drift)
    bad = run_experiment(cfg, out_dir=tmp_path / "bad")
    ok, orders = _orders(tmp_path / "ok"), _orders(tmp_path / "bad")
    print(f"orders {ok}, with the corrector reusing b(t, x) {orders}")
    assert abs(ok["heun-deterministic"] - 2.1502) < 1e-4
    assert abs(orders["heun-deterministic"] - 1.4038) < 1e-4
    assert abs(orders["em-additive"] - 1.2149) < 1e-4
    assert abs(orders["heun-stratonovich"] - 0.9793) < 1e-4
    assert bad.acceptance == {"em-additive": True, "heun-stratonovich": True,
                              "heun-deterministic": False}
