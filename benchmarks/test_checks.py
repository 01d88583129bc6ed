"""The benchmark's checks pass on the program's output and fail on a
deliberately perturbed copy of it.

Each workload runs here on a small input of the same make-up.
"""

import hashlib
import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

import checks
import spans
import workloads
from ypqwave.propagator import TruncationSpec


def _perturbed(sample, attr: str, key, delta: complex):
    """A copy of `sample` with one coefficient of `attr` moved by delta."""
    coeffs = getattr(sample, attr).copy()
    coeffs[key] = coeffs[key] + delta
    return type(sample)(**{**vars(sample), attr: coeffs})


# -- propagate_csv ------------------------------------------------------

SMALL_PROPAGATE = workloads.PropagateSpec(
    grid=(4, 4, 4, 4, 5), times=(0.0, 0.7), k_max=0, j_max=0, i_max=2,
    n_basis=12, betas_per_sector=1)


@pytest.fixture(scope="module")
def propagate_run(tmp_path_factory):
    wl = workloads.PropagateCsv(3, str(tmp_path_factory.mktemp("prop")),
                                SMALL_PROPAGATE)
    wl.prepare()
    with pytest.MonkeyPatch.context() as mp:
        # the config's cache_dir, not an inherited one
        mp.delenv("YPQWAVE_CACHE_DIR", raising=False)
        assert wl._propagate(wl.cold_cfg) == 0
    files = {}
    for name in os.listdir(wl.cold_out):
        with open(os.path.join(wl.cold_out, name), "rb") as fh:
            files[name] = fh.read()
    return wl, files


def _constant_sector_check(wl, field0: bytes, field_t: bytes):
    t = wl.spec.times[1]
    factor = (math.cos(t * wl.omega0)
              + wl.ratio * math.sin(t * wl.omega0) / wl.omega0)
    return checks.check_constant_sector(field0, field_t, factor)


def test_propagate_outputs_pass(propagate_run):
    wl, files = propagate_run
    checks.check_energy_trace(files["energy_trace.csv"].decode(),
                              wl.spec.times)
    for name in ("field_t0.csv", "field_t0p7.csv"):
        checks.check_rows(files[name], wl.sectors, wl.points)
    assert _constant_sector_check(wl, files["field_t0.csv"],
                                  files["field_t0p7.csv"]) < 1e-12


def test_propagate_workload_round(propagate_run, tmp_path):
    wl = workloads.PropagateCsv(3, str(tmp_path), SMALL_PROPAGATE)
    wl.prepare()
    wl.setup()
    wl.check_setup()
    wl.check(0, wl.ops()[0]())
    assert not os.path.exists(wl.warm_out)


def test_dropped_row_fails(propagate_run):
    wl, files = propagate_run
    text = files["field_t0p7.csv"]
    dropped = text[:text.rindex(b"\n", 0, len(text) - 1) + 1]
    with pytest.raises(checks.CheckFailed, match="lines"):
        checks.check_rows(dropped, wl.sectors, wl.points)


def test_scaled_constant_sector_fails(propagate_run):
    wl, files = propagate_run
    lines = files["field_t0p7.csv"].split(b"\n")
    row = next(i for i, ln in enumerate(lines) if ln.startswith(b"0,0,0,0,"))
    head, re_part, im_part = lines[row].rsplit(b",", 2)
    lines[row] = b",".join([head, repr(float(re_part) * (1 + 1e-6)).encode(),
                            im_part])
    with pytest.raises(checks.CheckFailed, match="closed form"):
        _constant_sector_check(wl, files["field_t0.csv"], b"\n".join(lines))


def test_energy_drift_fails(propagate_run):
    wl, files = propagate_run
    lines = files["energy_trace.csv"].decode().split("\n")
    head, energy = lines[-2].rsplit(",", 1)
    lines[-2] = f"{head},{float(energy) * (1 + 1e-8)!r}"
    with pytest.raises(checks.CheckFailed, match="drift"):
        checks.check_energy_trace("\n".join(lines), wl.spec.times)


def test_changed_byte_fails(propagate_run):
    _, files = propagate_run
    digest = lambda text: hashlib.sha256(text).hexdigest()
    ref = {name: digest(text) for name, text in files.items()}
    text = files["field_t0.csv"]
    changed = dict(ref, **{"field_t0.csv": digest(text[:-2] + b"0\n")})
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.check_identical(ref, changed)


# -- grid_roundtrip -----------------------------------------------------

SMALL_GRID = workloads.GridSpec(
    trunc=TruncationSpec(s1_max=1, n_max=1, m_max=0, l_max=0, k_max=0,
                         j_max=0, i_max=2, n_basis=12,
                         grid_shape=(10, 4, 4, 6, 10)),
    times=(0.0, 0.9))


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    wl = workloads.GridRoundtrip(5, str(tmp_path_factory.mktemp("grid")),
                                 SMALL_GRID)
    wl.prepare()
    wl.setup()
    wl.check_setup()
    samples = [op() for op in wl.ops()]
    for index, sample in enumerate(samples):
        wl.check(index, sample)
    return wl, samples


def test_grid_roundtrip_coefficient_fails(grid_run):
    wl, samples = grid_run
    bad = _perturbed(samples[0], "coefficients", wl.keys[3], 1e-8)
    with pytest.raises(checks.CheckFailed, match="round trip"):
        wl.check(0, bad)


def test_grid_evolved_coefficient_fails(grid_run):
    wl, samples = grid_run
    wl.check(0, samples[0])
    bad = _perturbed(samples[1], "coefficients", wl.keys[1], 1e-8)
    with pytest.raises(checks.CheckFailed, match="evolved coefficients"):
        wl.check(1, bad)


def test_grid_energy_drift_fails(grid_run):
    wl, samples = grid_run
    sample = samples[1]
    energy = dict(sample.per_mode_energy)
    energy[wl.keys[2]] *= 1 + 1e-10
    bad = type(sample)(**{**vars(sample), "per_mode_energy": energy})
    with pytest.raises(checks.CheckFailed, match="energy"):
        wl.check(1, bad)


def test_grid_synthesized_field_fails(grid_run):
    wl, samples = grid_run
    values = {sec: arr.copy() for sec, arr in samples[0].values.items()}
    next(iter(values.values()))[0, 0, 0, 0, 0] += 1e-6
    bad = type(samples[0])(**{**vars(samples[0]), "values": values})
    with pytest.raises(checks.CheckFailed, match="field"):
        wl.check(0, bad)


# -- duhamel_source -----------------------------------------------------

SMALL_DUHAMEL = workloads.DuhamelSpec(
    trunc=TruncationSpec(s1_max=0, n_max=1, m_max=0, l_max=0, k_max=0,
                         j_max=0, i_max=1, n_basis=12,
                         grid_shape=(8, 4, 4, 6, 8)),
    source_keys=2, times=(0.5,))


def test_duhamel_closed_form_matches_quadrature():
    poly = np.array([0.3 - 0.2j, -1.1, 0.4j, 0.25 + 0.1j])
    omega, t = 4.7, 1.3

    def integral(f):
        re = quad(lambda T: f(T).real, 0.0, t, epsabs=1e-14)[0]
        im = quad(lambda T: f(T).imag, 0.0, t, epsabs=1e-14)[0]
        return re + 1j * im

    p = lambda T: sum(poly[d] * T ** d for d in range(4))
    want_a = integral(lambda T: np.sin(omega * (t - T)) / omega * p(T))
    want_v = integral(lambda T: np.cos(omega * (t - T)) * p(T))
    got_a, got_v = checks.duhamel_polynomial(poly, omega, t)
    assert abs(got_a - want_a) < 1e-13 and abs(got_v - want_v) < 1e-13


def test_duhamel_coefficient_fails(tmp_path):
    wl = workloads.DuhamelSource(7, str(tmp_path), SMALL_DUHAMEL)
    wl.prepare()
    wl.setup()
    samples = wl.ops()[0]()
    wl.check(0, samples)
    key = wl.keys[wl.source_index[1]]
    bad = _perturbed(samples[0], "coefficients", key, 1e-8)
    with pytest.raises(checks.CheckFailed, match="duhamel coefficients"):
        wl.check(0, [bad])
    bad = _perturbed(samples[0], "velocity", key, 1e-8j)
    with pytest.raises(checks.CheckFailed, match="duhamel velocity"):
        wl.check(0, [bad])


# -- radial_oracle ------------------------------------------------------


def test_radial_oracle_checks(tmp_path):
    spec = workloads.RadialSpec(labels=((2, 3),), ml=((0, 0),), k_max=1,
                                n_basis=20)
    wl = workloads.RadialOracle(11, str(tmp_path), spec)
    wl.prepare()
    wl.setup()
    wl.check_setup()
    ops = wl.ops()
    kernel = ops[0]()          # problem 0 has Lambda = 0: kernel eigenvalue 0
    wl.check(0, kernel)
    wl.check(1, ops[1]())
    with pytest.raises(checks.CheckFailed, match="kernel"):
        wl.check(0, [1e-8] + kernel[1:])
    with pytest.raises(checks.CheckFailed, match="galerkin vs shooting"):
        wl.check(0, [kernel[0], kernel[1] * (1 + 1e-5)])
    with pytest.raises(checks.CheckFailed, match="kernel"):
        checks.check_kernel(2e-9)


# -- spans ---------------------------------------------------------------


def test_layer_metrics_self_time_and_phases():
    tracer = spans.Tracer()
    tracer.phase = "setup"
    root = tracer.begin("bench.setup")
    init = tracer.begin("propagator.init")
    build = tracer.begin("spectrum.build_modes")
    tracer.add("spectrum.modes", 4)
    tracer.end(build)
    tracer.end(init)
    tracer.end(root)
    for _ in range(2):
        tracer.phase = "op"
        root = tracer.begin("bench.op")
        evolve = tracer.begin("propagator.evolve")
        synth = tracer.begin("ads.synthesize")
        synth["attrs"]["ads.grid_bytes"] = 64
        tracer.end(synth)
        tracer.end(evolve)
        tracer.end(root)
    # fixed clock: every span gets start/end by hand
    times = {"bench.setup": (0.0, 10.0), "propagator.init": (1.0, 9.0),
             "spectrum.build_modes": (2.0, 5.0), "bench.op": (0.0, 4.0),
             "propagator.evolve": (0.5, 3.5), "ads.synthesize": (1.0, 2.0)}
    for s in tracer.spans:
        s["start"], s["end"] = times[s["name"]]
    out = spans.layer_metrics(tracer.spans)
    assert out["propagator.init_s"] == 5.0          # 8 minus child 3
    assert out["spectrum.build_modes_s"] == 3.0
    assert out["propagator.evolve_s"] == 2.0        # per op: 3 minus 1
    assert out["ads.synthesize_s"] == 1.0
    assert out["spectrum.modes"] == 4
    assert out["ads.grid_bytes"] == 64
    assert set(out) == set(spans.metric_names())
