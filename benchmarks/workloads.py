"""The benchmark's four workloads.

A workload turns its seed into program inputs (`prepare`, untimed),
sets the program up (`setup`, timed as set-up), and hands out one round
of operations (`ops`).  Every operation's output goes through `check`,
which compares it with values computed here apart from the program.
The seed changes input values only; truncations, grids, times and key
counts are fixed, so the amount of work does not depend on it.

Program calls go through module attributes (`cli.run`,
`propagator.KGPropagator`, ...) so that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
from dataclasses import dataclass

import numpy as np

from ypqwave import ads, cli, propagator, radial, shooting
from ypqwave.geometry import solve_geometry
from ypqwave.spectrum import TruncationPolicy, build_modes, enumerate_modes

import checks


# Klein-Gordon mass and AdS curvature of every workload
M = 1.0
KAPPA = 1.0


def _y_eigenvalues(gp, trunc) -> dict:
    """(n, m, l, k, j) -> Laplace eigenvalue, from a build of its own."""
    policy = TruncationPolicy(trunc.n_max, trunc.m_max, trunc.l_max,
                              trunc.k_max, trunc.j_max)
    modes = build_modes(gp, enumerate_modes(gp, policy), trunc.n_basis)
    return {(md.index.n, md.index.m, md.index.l, md.index.k, md.index.j):
            md.lam for md in modes}


def _omegas(keys, lams: dict) -> np.ndarray:
    return np.array([checks.ads_omega(b.s1, i, lams[b.beta[3:]], M, KAPPA)
                     for b, i in keys])


def _complex(rng, size) -> np.ndarray:
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _coefficients(keys, values) -> ads.SpectralCoefficients:
    return ads.SpectralCoefficients(
        {key: complex(v) for key, v in zip(keys, values)})


def _array(coeffs: ads.SpectralCoefficients, keys) -> np.ndarray:
    return np.array([coeffs[key] for key in keys], dtype=complex)


class Workload:
    """One set of inputs; subclasses fill in the program calls."""

    name = ""
    setups_per_round = 1    # timed set-ups before each round of operations

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def prepare(self) -> None:
        """Make the seeded inputs and the reference values (untimed)."""

    def setup(self) -> None:
        raise NotImplementedError

    def check_setup(self) -> None:
        """Check what the set-up produced; raises CheckFailed."""

    def ops(self) -> list:
        """One round of operations: callables returning their output."""
        raise NotImplementedError

    def check(self, index: int, out) -> None:
        """Check the output of ops()[index]; raises CheckFailed."""
        raise NotImplementedError

    def describe(self) -> dict:
        """Make-up of the inputs, for the results file."""
        return {}


# -- propagate_csv ------------------------------------------------------


# truncation of propagate_csv beside its spec, and the sectors other
# than (0,0,0,0) that carry data
PROPAGATE_S1_MAX = 1
PROPAGATE_N_MAX = 1
OTHER_SECTORS = ((0, 1, 0, 0), (0, -1, 0, 0), (1, 0, 0, 0))


@dataclass(frozen=True)
class PropagateSpec:
    grid: tuple = (6, 4, 4, 6, 6)
    times: tuple = (0.0, 0.6, 1.3)     # the first time must be 0
    k_max: int = 1
    j_max: int = 1
    i_max: int = 3
    n_basis: int = 16
    # betas of each of OTHER_SECTORS that carry a coefficient for every i
    betas_per_sector: int = 3


class PropagateCsv(Workload):
    """`ypqwave propagate` with CSV output and an eigenmode cache.

    Set-up is a cold-cache run (cache misses and writes); each timed
    operation is a warm run (cache hits) into a fresh output directory.
    """

    name = "propagate_csv"

    def __init__(self, seed, workdir, spec: PropagateSpec = PropagateSpec()):
        super().__init__(seed, workdir)
        self.spec = spec
        self.cache_dir = os.path.join(workdir, "cache")
        self.reference: dict | None = None

    def _config(self, out_dir: str) -> str:
        s = self.spec
        lines = [
            "schema_version = 1", "p = 2", "q = 3",
            f"M = {M!r}", f"kappa = {KAPPA!r}",
            f"s1_max = {PROPAGATE_S1_MAX}", f"n_max = {PROPAGATE_N_MAX}",
            f"k_max = {s.k_max}", f"j_max = {s.j_max}",
            f"i_max = {s.i_max}", f"n_basis = {s.n_basis}",
        ]
        for axis, size in zip(("x", "t1", "t2", "theta", "y"), s.grid):
            lines.append(f"grid_{axis} = {size}")
        lines.append("times = " + ", ".join(repr(t) for t in s.times))
        for name, coefs in (("phi0_coef", self.phi0),
                            ("phi1_coef", self.phi1)):
            for idx, val in coefs:
                lines.append(f"{name} = {' '.join(map(str, idx))} : "
                             f"{float(val.real)!r} : {float(val.imag)!r}")
        lines += ["out_format = csv", f"out_dir = {out_dir}",
                  f"cache_dir = {self.cache_dir}"]
        return "\n".join(lines) + "\n"

    def prepare(self):
        s = self.spec
        # the constant mode beta = 0, i = 0 alone fills sector (0,0,0,0);
        # |a0| is kept away from 0 because the check divides by it
        a0 = complex(self.rng.uniform(0.5, 1.5)
                     * np.exp(2j * np.pi * self.rng.random()))
        a1 = complex(_complex(self.rng, ()))
        zero = (0,) * 9
        self.phi0, self.phi1 = [(zero, a0)], [(zero, a1)]
        self.ratio = a1 / a0
        trunc = propagator.TruncationSpec(
            s1_max=PROPAGATE_S1_MAX, n_max=PROPAGATE_N_MAX, m_max=0,
            l_max=0, k_max=s.k_max, j_max=s.j_max, i_max=s.i_max)
        betas = propagator.enumerate_beta(trunc)
        for sector in OTHER_SECTORS:
            chosen = [b for b in betas
                      if (b.s3, b.n, b.m, b.l) == sector][:s.betas_per_sector]
            for beta in chosen:
                for i in range(s.i_max + 1):
                    a0, a1 = _complex(self.rng, 2)
                    self.phi0.append((beta.beta + (i,), complex(a0)))
                    self.phi1.append((beta.beta + (i,), complex(a1)))
        self.sectors = 1 + len(OTHER_SECTORS)
        self.points = int(np.prod(s.grid))
        # sqrt(Omega) of the constant mode: lambda = 0, s1 = 0, i = 0
        self.omega0 = checks.ads_omega(0, 0, 0.0, M, KAPPA)
        self.cold_cfg = os.path.join(self.workdir, "cold.cfg")
        self.warm_cfg = os.path.join(self.workdir, "warm.cfg")
        self.cold_out = os.path.join(self.workdir, "cold")
        self.warm_out = os.path.join(self.workdir, "warm")
        with open(self.cold_cfg, "w", encoding="utf-8") as fh:
            fh.write(self._config(self.cold_out))
        with open(self.warm_cfg, "w", encoding="utf-8") as fh:
            fh.write(self._config(self.warm_out))

    def _propagate(self, cfg_path: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(["propagate", "--config", cfg_path])

    def setup(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cold_code = self._propagate(self.cold_cfg)

    def check_setup(self):
        digests = self._check_outputs(self.cold_code, self.cold_out)
        if self.reference is None:
            self.reference = digests
        checks.check_identical(self.reference, digests)

    def ops(self):
        return [lambda: self._propagate(self.warm_cfg)]

    def check(self, index, out):
        checks.check_identical(self.reference,
                               self._check_outputs(out, self.warm_out))

    def _check_outputs(self, code: int, out_dir: str) -> dict:
        """Check one run's files, delete them, return their digests."""
        try:
            if code != 0:
                raise checks.CheckFailed(f"propagate exited {code}")
            fields = {}
            for name in os.listdir(out_dir):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    fields[name] = fh.read()
            energy = fields.pop("energy_trace.csv", None)
            if energy is None:
                raise checks.CheckFailed("no energy_trace.csv")
            checks.check_energy_trace(energy.decode(), self.spec.times)
            # one file per time, tagged as the program tags them; the
            # first time is 0, the reference of the closed form
            want = [f"field_{self._tag(t)}.csv" for t in self.spec.times]
            if sorted(fields) != sorted(want):
                raise checks.CheckFailed(f"field files {sorted(fields)}")
            for t, name in zip(self.spec.times, want):
                checks.check_rows(fields[name], self.sectors, self.points)
                factor = (np.cos(t * self.omega0)
                          + self.ratio * np.sin(t * self.omega0) / self.omega0)
                checks.check_constant_sector(fields[want[0]], fields[name],
                                             factor)
            return {name: hashlib.sha256(text).hexdigest()
                    for name, text in fields.items()}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    @staticmethod
    def _tag(t: float) -> str:
        return f"t{t:g}".replace(".", "p").replace("-", "m")

    def describe(self):
        s = self.spec
        return {"grid": list(s.grid), "times": list(s.times),
                "sectors": self.sectors, "coefficients":
                len(self.phi0) + len(self.phi1),
                "rows_per_file": self.sectors * self.points}


# -- grid_roundtrip -----------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    trunc: propagator.TruncationSpec = propagator.TruncationSpec(
        s1_max=2, n_max=1, m_max=0, l_max=0, k_max=1, j_max=1, i_max=3,
        n_basis=20, grid_shape=(16, 8, 8, 8, 16))
    times: tuple = (0.0, 0.9, 2.3)      # the round starts at t = 0


class GridRoundtrip(Workload):
    """KGPropagator.evolve of gridded Cauchy data, values synthesized.

    Set-up builds the propagator and synthesizes the Cauchy data from
    seeded coefficients (building every ModeTable block); each timed
    operation projects the data, evolves it and synthesizes the field.
    """

    name = "grid_roundtrip"

    def __init__(self, seed, workdir, spec: GridSpec = GridSpec()):
        super().__init__(seed, workdir)
        self.spec = spec

    def prepare(self):
        s = self.spec
        self.gp = solve_geometry(2, 3)
        self.keys = [(beta, i) for beta in propagator.enumerate_beta(s.trunc)
                     for i in range(s.trunc.i_max + 1)]
        self.a0 = _complex(self.rng, len(self.keys))
        self.a1 = _complex(self.rng, len(self.keys))
        self.omega = _omegas(self.keys, _y_eigenvalues(self.gp, s.trunc))
        self.c0 = _coefficients(self.keys, self.a0)
        self.c1 = _coefficients(self.keys, self.a1)
        self.start = None

    def setup(self):
        # drop the previous set-up first: peak memory holds one of them
        self.prop = self.data = None
        self.prop = propagator.KGPropagator(self.gp, M, KAPPA,
                                            self.spec.trunc)
        self.data = propagator.CauchyData(
            ads.synthesize(self.c0, self.prop.table),
            ads.synthesize(self.c1, self.prop.table))

    def check_setup(self):
        sectors = {beta.sector for beta, _ in self.keys}
        if set(self.data.phi0) != sectors:
            raise checks.CheckFailed("synthesized data misses sectors")

    def ops(self):
        return [lambda t=t: self.prop.evolve(self.data, t,
                                             synthesize_values=True)
                for t in self.spec.times]

    def check(self, index, sample):
        coeffs = _array(sample.coefficients, self.keys)
        vel = _array(sample.velocity, self.keys)
        if index == 0:
            # t = 0: projection of the synthesized data gives back the
            # seeded coefficients, and its synthesis gives back the data
            checks.check_close("round trip a0", coeffs, self.a0, 1e-10)
            checks.check_close("round trip a1", vel, self.a1, 1e-10)
            checks.check_field(sample.values, self.data.phi0, 1e-10)
            self.start = (coeffs, vel)
        else:
            want_a, want_v = checks.free_evolution(*self.start, self.omega,
                                                   sample.t)
            checks.check_close("evolved coefficients", coeffs, want_a, 1e-12)
            checks.check_close("evolved velocity", vel, want_v, 1e-12)
        energy0 = np.array([sample.per_mode_energy[key] for key in self.keys])
        checks.check_energy(coeffs, vel, self.omega, energy0, 1e-12)

    def describe(self):
        t = self.spec.trunc
        betas = len(self.keys) // (t.i_max + 1)
        sectors = len({beta.sector for beta, _ in self.keys})
        field_bytes = sectors * int(np.prod(t.grid_shape)) * 16
        return {"grid": list(t.grid_shape), "times": list(self.spec.times),
                "betas": betas, "sectors": sectors, "keys": len(self.keys),
                "field_bytes": field_bytes}


# -- duhamel_source -----------------------------------------------------


# times at which the source is sampled
SLICE_TIMES = (0.0, 0.5, 1.0, 1.5, 2.0)
# coefficients of T^0..T^3 of every source polynomial, before its seeded
# phase: the adaptive step's error test takes moduli, so its work is the
# same for every seed
SOURCE_SHAPE = np.array([1.0, 0.5j, -0.25, 0.125 * np.exp(0.25j * np.pi)])


@dataclass(frozen=True)
class DuhamelSpec:
    trunc: propagator.TruncationSpec = propagator.TruncationSpec(
        s1_max=1, n_max=2, m_max=1, l_max=1, k_max=1, j_max=1, i_max=3,
        n_basis=20, grid_shape=(8, 4, 4, 6, 8))
    source_keys: int = 4
    times: tuple = (1.0, 1.8)


class DuhamelSource(Workload):
    """evolve_inhomogeneous of coefficient data with a sampled source.

    The source coefficients are one cubic polynomial in time, each key's
    times a seeded phase, so the spline through the slices is exact and
    the Duhamel integral has a closed form.  Each timed operation
    evolves to one time.
    """

    name = "duhamel_source"

    def __init__(self, seed, workdir, spec: DuhamelSpec = DuhamelSpec()):
        super().__init__(seed, workdir)
        self.spec = spec

    def prepare(self):
        s = self.spec
        self.gp = solve_geometry(2, 3)
        self.keys = [(beta, i) for beta in propagator.enumerate_beta(s.trunc)
                     for i in range(s.trunc.i_max + 1)]
        self.a0 = _complex(self.rng, len(self.keys))
        self.a1 = _complex(self.rng, len(self.keys))
        stride = len(self.keys) // s.source_keys
        self.source_index = np.arange(s.source_keys) * stride
        phases = np.exp(2j * np.pi * self.rng.random((s.source_keys, 1)))
        self.poly = SOURCE_SHAPE * phases
        self.omega = _omegas(self.keys, _y_eigenvalues(self.gp, s.trunc))
        src_keys = [self.keys[k] for k in self.source_index]
        self.slices = []
        for T in SLICE_TIMES:
            vals = sum(self.poly[:, d] * T ** d for d in range(4))
            self.slices.append(_coefficients(src_keys, vals))
        self.c0 = _coefficients(self.keys, self.a0)
        self.c1 = _coefficients(self.keys, self.a1)

    def setup(self):
        self.prop = propagator.KGPropagator(self.gp, M, KAPPA,
                                            self.spec.trunc)
        self.data = propagator.CauchyData(self.c0, self.c1)
        self.source = propagator.SourceTerm(np.array(SLICE_TIMES),
                                            self.slices)

    def ops(self):
        return [lambda t=t: [self.prop.evolve_inhomogeneous(
                    self.data, self.source, t, synthesize_values=False)]
                for t in self.spec.times]

    def expected(self, t: float):
        want_a, want_v = checks.free_evolution(self.a0, self.a1, self.omega, t)
        idx = self.source_index
        duh_a, duh_v = checks.duhamel_polynomial(self.poly, self.omega[idx], t)
        want_a[idx] += duh_a
        want_v[idx] += duh_v
        return want_a, want_v

    def check(self, index, samples):
        for sample in samples:
            want_a, want_v = self.expected(sample.t)
            checks.check_close(f"duhamel coefficients t={sample.t}",
                               _array(sample.coefficients, self.keys),
                               want_a, 1e-10)
            checks.check_close(f"duhamel velocity t={sample.t}",
                               _array(sample.velocity, self.keys),
                               want_v, 1e-10)

    def describe(self):
        s = self.spec
        return {"keys": len(self.keys), "source_keys": s.source_keys,
                "slices": len(SLICE_TIMES), "times": list(s.times)}


# -- radial_oracle ------------------------------------------------------

# the seeded Lambda beside Lambda = 0 is drawn uniformly from this range
LAMBDA_RANGE = (2.0, 8.0)


@dataclass(frozen=True)
class RadialSpec:
    labels: tuple = ((2, 3), (3, 4))
    ml: tuple = ((0, 0), (1, 0))
    k_max: int = 1
    n_basis: int = 28


class RadialOracle(Workload):
    """Galerkin radial solves over (p,q) x (m,l) x Lambda, each
    eigenvalue confirmed by the independent shooting oracle.

    Set-up runs every Galerkin solve; each timed operation confirms the
    eigenvalues of one problem by shooting.
    """

    name = "radial_oracle"
    setups_per_round = 4    # set-up is short beside its round

    def __init__(self, seed, workdir, spec: RadialSpec = RadialSpec()):
        super().__init__(seed, workdir)
        self.spec = spec

    def prepare(self):
        s = self.spec
        self.problems = []
        for pq in s.labels:
            for m, l in s.ml:
                for lam in (0.0, float(self.rng.uniform(*LAMBDA_RANGE))):
                    self.problems.append((pq, m, l, lam))

    def setup(self):
        s = self.spec
        self.solved = []
        for (p, q), m, l, lam in self.problems:
            prob = radial.radial_problem(solve_geometry(p, q), m, l, lam)
            self.solved.append((prob, radial.solve_radial(prob, s.k_max,
                                                          s.n_basis)))

    def check_setup(self):
        for (_, m, l, lam), (_, modes) in zip(self.problems, self.solved):
            if (m, l, lam) == (0, 0, 0.0):
                checks.check_kernel(modes[0].ell)

    def ops(self):
        def confirm(prob, modes):
            out = []
            for md in modes:
                if md.ell == 0.0:
                    bracket = (-1e-6, 1e-6)
                else:
                    pad = 0.02 * max(1.0, md.ell)
                    bracket = (md.ell - pad, md.ell + pad)
                out.append(shooting.shooting_oracle(prob, bracket, md.k))
            return out
        return [lambda solved=solved: confirm(*solved)
                for solved in self.solved]

    def check(self, index, oracle):
        """`oracle` holds the shooting eigenvalues of problem `index`."""
        (_, m, l, lam), (_, modes) = self.problems[index], self.solved[index]
        # relative for eigenvalues above 1, absolute below
        checks.check_close("galerkin vs shooting", oracle,
                           [md.ell for md in modes], 1e-6)
        if (m, l, lam) == (0, 0, 0.0):
            checks.check_kernel(oracle[0])

    def describe(self):
        s = self.spec
        return {"problems": len(self.problems), "k_max": s.k_max,
                "n_basis": s.n_basis,
                "lambdas": [lam for *_, lam in self.problems]}


WORKLOADS = {cls.name: cls for cls in (PropagateCsv, GridRoundtrip,
                                       DuhamelSource, RadialOracle)}
