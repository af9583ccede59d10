import os
import subprocess
import sys

import numpy as np
import pytest

import sscirl
from sscirl import _kernel_py, plant


def _workload(scenario, kp_segments, seed):
    """Build the segment matrices and noise arrays run_episode would use."""
    rng = np.random.default_rng(seed)
    n_total = round(scenario.horizon / scenario.sim_dt)
    n_steps = n_total - 1  # out[0] is the initial sample
    steps = [n_steps // len(kp_segments)] * len(kp_segments)
    steps[-1] += n_steps - sum(steps)
    mats = np.array([plant._discretize(scenario.omega,
                                       plant.damping_of_gain(scenario, kp),
                                       scenario.sim_dt)
                     for kp in kp_segments])
    w = rng.normal(0.0, scenario.noise_std / np.sqrt(scenario.sim_dt), n_steps)
    vnoise = rng.normal(0.0, scenario.noise_std, n_total)
    out = np.empty(n_total)
    return (scenario.disturbance_amp, 0.0, mats, np.array(steps), w, vnoise,
            scenario.p_nom, scenario.diverge_threshold, out)


def _run(kernel, args):
    x0, v0, mats, steps, w, vnoise, p_nom, thr, out = args
    out = out.copy()
    n_valid, x, v, diverged = kernel.simulate_segments(
        x0, v0, mats, steps, w.copy(), vnoise.copy(), p_nom, thr, out)
    return n_valid, x, v, diverged, out


@pytest.fixture(scope="module")
def compiled():
    try:
        from sscirl import _kernel
    except ImportError:
        pytest.skip("compiled kernel not built")
    return _kernel


class TestBitIdentity:
    def test_full_episode_workload(self, compiled):
        scn = plant.PlantScenario()
        args = _workload(scn, [scn.kp_stable, scn.kp_unstable, 2.0], seed=3)
        n_c, x_c, v_c, d_c, out_c = _run(compiled, args)
        n_p, x_p, v_p, d_p, out_p = _run(_kernel_py, args)
        assert (n_c, d_c) == (n_p, d_p)
        assert x_c == x_p and v_c == v_p
        assert np.array_equal(out_c, out_p)

    def test_divergence_truncation_agrees(self, compiled):
        scn = plant.PlantScenario(zeta_stable=0.05, diverge_threshold=1e3,
                                  noise_std=0.0)
        args = _workload(scn, [scn.kp_unstable], seed=0)
        n_c, _, _, d_c, out_c = _run(compiled, args)
        n_p, _, _, d_p, out_p = _run(_kernel_py, args)
        assert d_c and d_p
        assert n_c == n_p < len(out_c)
        assert np.array_equal(out_c[:n_c], out_p[:n_p])

    def test_run_episode_identical_across_backends(self, compiled):
        # the public path through plant.run_episode under each backend
        code = (
            "import numpy as np\n"
            "import sscirl\n"
            "from sscirl import plant\n"
            "scn = plant.PlantScenario()\n"
            "r = plant.run_episode(scn, plant.GainAction(2.0), seed=9)\n"
            "print(sscirl.USING_COMPILED, r.trace.samples.sum().hex())\n"
        )
        runs = {}
        for env_flag in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True,
                env={**os.environ, "SSCIRL_PURE_PYTHON": env_flag},
            )
            assert proc.returncode == 0, proc.stderr
            runs[env_flag] = proc.stdout.split()
        assert runs["0"][0] == "True"
        assert runs["1"][0] == "False"
        assert runs["0"][1] == runs["1"][1]


def test_backend_flags_consistent():
    from sscirl import kernel
    assert kernel.USING_COMPILED == sscirl.USING_COMPILED
    assert _kernel_py.COMPILED is False
