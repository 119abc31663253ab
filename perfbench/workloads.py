"""The three benchmark workloads: seeded raw inputs, timed rounds, checks.

Each workload turns its seed into raw numpy arrays during set-up.  A round
hands those arrays to twinspace, so every ``TwoStateVector``, ``Projector``
and ``Measurement`` is built inside the timed region, and checks each
output against numpy computations made here or against properties the
method must have.  Checks run outside the timed region.  Every round runs
the same operations, so the share of failed operations is the same in
every run.

Every program output passes through ``Workload.out`` before it is checked;
the self-test uses that hook to perturb one kind of output at a time and
shows that the matching check then fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

import numpy as np

import twinspace as ts
import twinspace.cli  # noqa: F401  (makes ts.cli available)
from twinspace.distinguish import DEFAULT_ANCHOR_FLOOR, DEFAULT_FEAS_TOL

from run import OUTDIR

TOL = ts.DEFAULT_TOL
SIGMA = 5.0            # sigma bound for the randomized Monte Carlo checks
MC_TRIALS = 200_000
MIN_EXPECTED = 400     # expected successes per outcome of the MC inputs


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def require(condition, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


class Recorder:
    """Seconds spent in library calls and in CLI calls during one round."""

    def __init__(self):
        self.lib_s = 0.0
        self.cli_s = 0.0

    @contextlib.contextmanager
    def lib(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.lib_s += time.perf_counter() - start


# ---------------------------------------------------------------------------
# numpy reference computations, independent of twinspace
# ---------------------------------------------------------------------------

def haar_unitary(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def grouped_projectors(basis: np.ndarray, sizes) -> list[np.ndarray]:
    """Projectors onto consecutive column groups of an orthonormal basis."""
    out, start = [], 0
    for size in sizes:
        cols = basis[:, start:start + size]
        out.append(cols @ cols.conj().T)
        start += size
    return out


def random_sizes(rng, d: int, k: int) -> list[int]:
    cuts = np.sort(rng.choice(np.arange(1, d), size=k - 1, replace=False))
    return np.diff(np.concatenate(([0], cuts, [d]))).tolist()


def amplitudes(projs, matrix: np.ndarray) -> np.ndarray:
    """A_i = Tr(P_i M) for each projector."""
    return np.array([np.trace(p @ matrix) for p in projs])


def abl_reference(projs, matrix: np.ndarray) -> np.ndarray:
    w = np.abs(amplitudes(projs, matrix)) ** 2
    return w / w.sum()


def close(a, b, rtol=1e-9, atol=1e-12) -> bool:
    return bool(np.allclose(np.asarray(a), np.asarray(b), rtol=rtol, atol=atol))


def unit(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def born_joint(pre, post, projs) -> np.ndarray:
    """Probability per trial of outcome i followed by a successful
    post-selection: |<post|P_i|pre>|^2."""
    return np.array([abs(np.vdot(post, p @ pre)) ** 2 for p in projs])


def within_sigma(counts, trials: int, probs, bound: float = SIGMA) -> bool:
    """Binomial counts within ``bound`` standard errors of trials * probs."""
    counts = np.asarray(counts, dtype=float)
    se = np.sqrt(trials * probs * (1.0 - probs))
    return bool(np.all(np.abs(counts - trials * probs) <= bound * se + 1e-9))


# ---------------------------------------------------------------------------
# workload base
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    tag = 0

    def __init__(self, seed: int, scale: float = 1.0):
        self.scale = scale
        self.rng = np.random.default_rng([self.tag, seed])
        self.attempted = 0
        self.failed = 0
        self.perturb = None          # (kind, fn(value, round)) in the self-test
        self.kinds: set = set()      # output kinds seen, for the self-test
        self._first: dict = {}       # outputs that must repeat exactly

    def n(self, full: int, least: int = 1) -> int:
        return max(least, int(round(full * self.scale)))

    def out(self, kind: str, value, r: int):
        self.kinds.add(kind)
        if self.perturb is not None and self.perturb[0] == kind:
            return self.perturb[1](value, r)
        return value

    def repeats(self, key, value) -> bool:
        """True iff ``value`` equals the value first seen under ``key``."""
        first = self._first.setdefault(key, value)
        if isinstance(value, np.ndarray):
            return bool(np.array_equal(first, value))
        return first == value

    def warm_up(self) -> None:
        import scipy.optimize  # noqa: F401  (imported lazily by distinguish)

        ts.builtin_workspace()

    def cli(self, rec: Recorder, r: int, argv: list[str]) -> dict:
        """One in-process CLI call with captured output; exit code 0 and a
        byte-identical ``--json`` output across rounds are required.  The
        parsed output is returned as output kind ``cli:<command>``."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = ts.cli.main(argv)
            rec.cli_s += time.perf_counter() - start
        self.attempted += 1
        code = self.out("cli_exit", code, r)
        text = self.out("cli_json", out.getvalue(), r)
        require(code == 0, f"cli {argv[0]}: exit code {code}: "
                           f"{err.getvalue().strip()}")
        require(self.repeats(("cli",) + tuple(argv), text),
                f"cli {argv[0]}: --json output differs between calls")
        return self.out("cli:" + argv[0], json.loads(text), r)

    def run_round(self, r: int, rec: Recorder) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks made once per run, after the timed rounds."""

    def cleanup(self) -> None:
        """Remove files the workload wrote during set-up."""

    # shared check: a story certificate against the raw matrix
    def check_certificate(self, cert, raw: np.ndarray, expected_case, r: int):
        w = cert.witness.amplitudes
        amp = self.out("certificate", cert.amplitude_magnitude, r)
        ref = abs(np.vdot(w, raw @ w))
        require(close(amp, ref), f"certificate amplitude {amp!r} != |w^+ M w| "
                                 f"= {ref!r}")
        require(amp > TOL * np.linalg.norm(raw),
                "certificate amplitude does not exceed tol * ||M||")
        case = self.out("certificate_case", cert.case.value, r)
        require(case == expected_case,
                f"certificate case {case} != {expected_case}")

    def check_abl(self, dist, projs, raw, r: int):
        p = self.out("abl", dist.probabilities, r)
        require(close(p, abl_reference(projs, raw)),
                "ABL probabilities differ from |Tr(P_i M)|^2 / sum")


# ---------------------------------------------------------------------------
# sweep: thousands of small stories, searches and Monte Carlo runs
# ---------------------------------------------------------------------------

class Sweep(Workload):
    """Many small (d <= 8) stories: construction, validation and ABL
    statistics in core/measurement, plus Monte Carlo sampling."""

    name = "sweep"
    tag = 1
    CASES = ("generic",) * 6 + ("zero_diagonal", "antisymmetric")
    EXPECTED_CASE = {"generic": "DIAGONAL", "zero_diagonal": "SYMMETRIC_OFFDIAG",
                     "antisymmetric": "ANTISYMMETRIC"}

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        rng = self.rng
        self.stories = []
        for j in range(self.n(160, 2)):
            d = 2 + j % 7
            k = int(rng.integers(2, d + 1))
            projs = grouped_projectors(haar_unitary(rng, d), random_sizes(rng, d, k))
            vecs = []
            for kind in self.CASES:
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                if kind == "zero_diagonal":
                    np.fill_diagonal(g, 0.0)
                elif kind == "antisymmetric":
                    g = g - g.T
                vecs.append((kind, g))
            weights = rng.random(len(vecs)) + 0.1
            self.stories.append((projs, vecs, (weights / weights.sum()).tolist()))

        self.search_trials = self.n(200, 4)
        self.search_seed = int(rng.integers(2 ** 31))
        self.qubit_measurements = [
            grouped_projectors(haar_unitary(rng, 2), [1, 1] if i % 2 else [2])
            for i in range(self.n(64, 2))
        ]
        self.mc = [self._mc_case(rng, d, k) for d, k in ((2, 2), (3, 3), (8, 4))]

        s = 2 ** -0.5
        self.plus = np.array([s, s])
        self.ket0, self.ket1 = np.eye(2)
        self.diagonal = grouped_projectors(np.array([[s, s], [s, -s]]), [1, 1])
        self.computational = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        self.near_threshold = np.array([[8e-11, 1.0], [0.0, 8e-11]])

    @staticmethod
    def _mc_case(rng, d: int, k: int) -> dict:
        """A measurement with k equal groups, pre/post pairs whose every
        outcome expects >= MIN_EXPECTED successes, and the unitary that
        cycles the groups (so a pair and its image share a success rate)."""
        basis = haar_unitary(rng, d)
        projs = grouped_projectors(basis, [d // k] * k)
        shift = np.roll(np.eye(d), d // k, axis=0)
        cycle = basis @ shift @ basis.conj().T

        def pair():
            while True:
                pre, post = unit(rng, d), unit(rng, d)
                if born_joint(pre, post, projs).min() * MC_TRIALS >= MIN_EXPECTED:
                    return pre, post

        pre, post = pair()
        pre2, post2 = pair()
        return {
            "projs": projs, "pre": pre, "post": post, "pre2": pre2,
            "post2": post2, "cycled": (cycle @ pre, cycle @ post),
            "weight": float(rng.uniform(0.2, 0.8)),
            "seeds": [int(x) for x in rng.integers(2 ** 31, size=3)],
        }

    def run_round(self, r, rec):
        for projs, vecs, weights in self.stories:
            self._stories(r, rec, projs, vecs, weights)
        self._searches(r, rec)
        for i, case in enumerate(self.mc):
            self._monte_carlo(r, rec, i, case)
        self._mixture_rule(r, rec)
        self._story_predicate(r, rec)
        self._cli(r, rec)

    def _stories(self, r, rec, projs, vecs, weights):
        with rec.lib():
            m = ts.validate_measurement(projs)
        self.attempted += 1
        require(self.out("measurement", m.num_outcomes, r) == len(projs),
                "validate_measurement changed the outcome count")
        built, refs = [], []
        for kind, raw in vecs:
            with rec.lib():
                v = ts.TwoStateVector(raw)
                story = ts.forms_story(v, m)
                dist = ts.abl_probabilities(v, m)
                cert = ts.find_story_measurement(v)
                same = ts.time_reversal_equivalence_check(v, [m])
            self.attempted += 1
            amps = amplitudes(projs, raw)
            require(self.out("forms_story", story, r)
                    == bool(np.max(np.abs(amps)) > TOL * np.linalg.norm(raw)),
                    "forms_story disagrees with max |Tr(P_i M)| > tol ||M||")
            self.check_abl(dist, projs, raw, r)
            self.check_certificate(cert, raw, self.EXPECTED_CASE[kind], r)
            require(self.out("time_reversal", same, r) is True,
                    "a vector and its time reversal were told apart")
            built.append(v)
            refs.append(abl_reference(projs, raw))
        with rec.lib():
            mixed = ts.mixture_statistics(ts.Mixture(tuple(zip(weights, built))), m)
        self.attempted += 1
        require(close(self.out("mixture_statistics", mixed.probabilities, r),
                      sum(w * p for w, p in zip(weights, refs))),
                "mixture_statistics differs from the prior-weighted ABL mean")

    def _searches(self, r, rec):
        classical = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        pairs = {"ket0_bra1": np.outer(self.ket0, self.ket1),
                 "qubit_identity": np.eye(2) / np.sqrt(2.0)}
        for name, raw in pairs.items():
            with rec.lib():
                mix = ts.Mixture(tuple((0.5, ts.TwoStateVector(c)) for c in classical))
                found = ts.search_distinguishing_measurement(
                    ts.Mixture.point(ts.TwoStateVector(raw)), mix,
                    self.search_trials, 2, self.search_seed)
            self.attempted += 1
            require(self.out("search", found, r) is None,
                    f"a measurement separates {name} from classical_qubit")
        for projs in self.qubit_measurements:
            with rec.lib():
                mix = ts.Mixture(tuple((0.5, ts.TwoStateVector(c)) for c in classical))
                same = ts.replicates_on(
                    ts.Mixture.point(ts.TwoStateVector(pairs["qubit_identity"])),
                    mix, ts.validate_measurement(projs))
            self.attempted += 1
            require(self.out("replicates", same, r) is True,
                    "classical_qubit fails to replicate qubit_identity")

    def _monte_carlo(self, r, rec, i, case):
        projs, trials = case["projs"], MC_TRIALS
        seed1, seed2, seed3 = case["seeds"]
        joint = born_joint(case["pre"], case["post"], projs)
        with rec.lib():
            m = ts.validate_measurement(projs)
            pre, post = ts.StateVector(case["pre"]), ts.StateVector(case["post"])
            exp = ts.PrePostExperiment(pre, post, m, trials, seed1)
            log = ts.simulate(exp)
        self.attempted += 1
        counts = self.out("simulate", log.outcome_counts, r)
        require(within_sigma(counts, trials, joint),
                f"simulate counts (d={m.dim}) outside {SIGMA} sigma of Born rule")
        require(self.repeats(("simulate", i), counts),
                "simulate does not repeat under the same seed")

        with rec.lib():
            report = ts.validate_abl(exp, SIGMA)
        self.attempted += 1
        self._check_validation(report, joint / joint.sum(), r)

        joint2 = born_joint(case["pre2"], case["post2"], projs)
        w = case["weight"]
        with rec.lib():
            mexp = ts.MixtureExperiment(
                ((w, pre, post), (1.0 - w, ts.StateVector(case["pre2"]),
                                  ts.StateVector(case["post2"]))),
                m, trials, seed2)
            mlog = ts.simulate_mixture(mexp)
        self.attempted += 1
        counts = self.out("simulate_mixture", mlog.outcome_counts, r)
        require(within_sigma(counts, trials, w * joint + (1 - w) * joint2),
                "simulate_mixture counts outside the success-weighted prediction")
        require(self.repeats(("simulate_mixture", i), counts),
                "simulate_mixture does not repeat under the same seed")

        # A pair and its group-cycled image share one success rate, the
        # condition under which validate_mixture_abl's prediction holds.
        cpre, cpost = case["cycled"]
        joint_c = born_joint(cpre, cpost, projs)
        with rec.lib():
            eexp = ts.MixtureExperiment(
                ((w, pre, post), (1.0 - w, ts.StateVector(cpre),
                                  ts.StateVector(cpost))),
                m, trials, seed3)
            report = ts.validate_mixture_abl(eexp, SIGMA)
        self.attempted += 1
        mixed = w * joint + (1 - w) * joint_c
        self._check_validation(report, mixed / mixed.sum(), r)

    def _check_validation(self, report, predicted, r):
        rows = self.out("validation", report.rows, r)
        require(close([row.predicted for row in rows], predicted),
                "validation predicts other probabilities than the Born rule")
        empirical = np.array([row.empirical for row in rows])
        require(within_sigma(empirical * report.successes, report.successes,
                             predicted),
                "validation frequencies outside the Born-rule bound")
        require(self.out("validation_passed", report.passed, r),
                "validation reports FAIL on a valid input")

    def _mixture_rule(self, r, rec):
        """50/50 mixture of plus->plus and ket0->ket1 on the diagonal basis:
        validate_mixture_abl predicts with prior weights while the
        simulation weights by post-selection success, so it reports FAIL."""
        trials = 100_000
        with rec.lib():
            plus = ts.StateVector(self.plus)
            mexp = ts.MixtureExperiment(
                ((0.5, plus, plus), (0.5, ts.StateVector(self.ket0),
                                     ts.StateVector(self.ket1))),
                ts.validate_measurement(self.diagonal), trials, 0)
            report = ts.validate_mixture_abl(mexp)
        self.attempted += 1
        joint = (0.5 * born_joint(self.plus, self.plus, self.diagonal)
                 + 0.5 * born_joint(self.ket0, self.ket1, self.diagonal))
        empirical = np.array([row.empirical for row in
                              self.out("mixture_rule", report.rows, r)])
        require(within_sigma(empirical * report.successes, report.successes,
                             joint / joint.sum()),
                "simulate_mixture disagrees with the success-weighted prediction")
        if not report.passed:
            self.failed += 1

    def _story_predicate(self, r, rec):
        """v = [[8e-11, 1], [0, 8e-11]] on the computational basis: abl
        raises NotAStory <=> not forms_story <=> member of the null space."""
        with rec.lib():
            v = ts.TwoStateVector(self.near_threshold)
            m = ts.validate_measurement(self.computational)
            story = ts.forms_story(v, m)
            try:
                ts.abl_probabilities(v, m)
                raised = False
            except ts.NotAStoryError:
                raised = True
            member = ts.membership_in_null(v, ts.null_subspace(m))
        self.attempted += 1
        if not (raised == (not story) == member):
            self.failed += 1

    def _cli(self, r, rec):
        out = self.cli(rec, r, ["abl", "ket0_bra1", "diagonal", "--json"])
        require(close(out["probabilities"],
                      abl_reference(self.diagonal, np.outer(self.ket0, self.ket1))),
                "cli abl probabilities differ from numpy")
        out = self.cli(rec, r, ["story", "qubit_identity", "computational",
                                "--json"])
        require(out["forms_story"] is True, "cli story: identity has no story")
        out = self.cli(rec, r, ["find-story", "qutrit_signed", "--json"])
        w = np.array([complex(*z) for z in
                      out["certificate"]["witness"]["amplitudes"]])
        target = np.diag([1.0, 1.0, -1.0]) / np.sqrt(3.0)
        require(close(out["certificate"]["amplitude_magnitude"],
                      abs(np.vdot(w, target @ w))),
                "cli find-story amplitude differs from |w^+ M w|")
        out = self.cli(rec, r, ["distinguish", "ket0_bra1", "classical_qubit",
                                "--trials", "100", "--json"])
        require(out["found"] is False, "cli distinguish separated ket0_bra1")
        out = self.cli(rec, r, ["reproduce", "1", "--json"])
        require(out["pass"] is True, "cli reproduce 1 fails")


# ---------------------------------------------------------------------------
# certify: strict non-separability, infeasible and feasible
# ---------------------------------------------------------------------------

def qutrit_family() -> tuple[np.ndarray, list[list[np.ndarray]]]:
    """The signed-qutrit target and its four two-outcome measurements."""
    s = 2 ** -0.5
    e0, e1, e2 = np.eye(3)
    plus, minus = np.array([s, s, 0]), np.array([s, -s, 0])
    plus_i, minus_i = np.array([s, 1j * s, 0]), np.array([s, -1j * s, 0])

    def proj(*vs):
        return sum(np.outer(v, np.conj(v)) for v in vs)

    family = [[proj(e0), proj(e1, e2)], [proj(e1), proj(e0, e2)],
              [proj(plus), proj(minus, e2)], [proj(plus_i), proj(minus_i, e2)]]
    return np.diag([1.0, 1.0, -1.0]) / np.sqrt(3.0), family


def zero_system(target, family):
    """Zero outcomes (p <= tol) and the anchor, from numpy ABL values."""
    zeros = [(mi, oi) for mi, projs in enumerate(family)
             for oi, p in enumerate(abl_reference(projs, target)) if p <= TOL]
    anchor = (0, int(np.argmax(abl_reference(family[0], target))))
    return zeros, anchor


def minimum_residual(family, zeros, anchor, floor, starts=32, seed=0) -> float:
    """Independent minimization of sum_z |a^T C_z b|^2 +
    max(0, floor - |a^T A b|)^2 over unit a, b, with an analytic gradient."""
    from scipy.optimize import minimize

    cs = np.stack([family[mi][oi].T for mi, oi in zeros])
    anchor_m = family[anchor[0]][anchor[1]].T
    d = cs.shape[1]

    def f(x):
        xa, xb = x[:2 * d], x[2 * d:]
        grads = []
        a_raw = xa[:d] + 1j * xa[d:]
        b_raw = xb[:d] + 1j * xb[d:]
        na, nb = np.linalg.norm(a_raw), np.linalg.norm(b_raw)
        a, b = a_raw / na, b_raw / nb
        amps = np.einsum("k,zkl,l->z", a, cs, b)
        g = a @ anchor_m @ b
        short = max(0.0, floor - abs(g))
        value = float(np.sum(np.abs(amps) ** 2) + short ** 2)
        phase = np.conj(g) / abs(g) if abs(g) > 0 else 0.0
        u_a = 2 * np.einsum("z,zkl,l->k", np.conj(amps), cs, b) \
            - 2 * short * phase * (anchor_m @ b)
        u_b = 2 * np.einsum("z,zkl,k->l", np.conj(amps), cs, a) \
            - 2 * short * phase * (a @ anchor_m)
        for raw, u, nrm in ((a_raw, u_a, na), (b_raw, u_b, nb)):
            radial = float(np.real(raw @ u)) / nrm ** 3
            grads.append(np.concatenate([u.real / nrm - radial * raw.real,
                                         -u.imag / nrm - radial * raw.imag]))
        return value, np.concatenate(grads)

    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(starts):
        res = minimize(f, rng.standard_normal(4 * d), jac=True, method="BFGS",
                       options={"gtol": 1e-12, "maxiter": 2000})
        best = min(best, float(res.fun))
    return best


class Certify(Workload):
    """certify_strict_nonseparability on the signed qutrit, infeasible over
    the full family and feasible over a three-measurement subfamily."""

    name = "certify"
    tag = 2
    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        rng = self.rng
        self.target, self.family = qutrit_family()
        # A seeded unitary frame: it changes every array the program sees
        # and preserves every verdict and the residual minimum.
        u = haar_unitary(rng, 3)
        self.rot_target = u @ self.target @ u.conj().T
        self.rot_family = [[u @ p @ u.conj().T for p in projs]
                           for projs in self.family]
        self.starts = self.n(24, 8)
        # whole 2**16-sample batches, so the doubled scan extends the first
        self.scan_samples = (1 << 16) * self.n(4)
        self.scan_seed = int(rng.integers(2 ** 31))
        self.start_seed = int(rng.integers(2 ** 20))
        self.residuals: list[float] = []

    def run_round(self, r, rec):
        seed = self.start_seed * 1000 + r
        with rec.lib():
            target = ts.TwoStateVector(self.rot_target)
            family = [ts.validate_measurement(p) for p in self.rot_family]
            full = ts.certify_strict_nonseparability(target, family,
                                                     self.starts, seed)
        self.attempted += 1
        require(self.out("verdict_full", full.verdict.value, r)
                == "STRICTLY_NONSEPARABLE_EVIDENCE",
                f"full family verdict {full.verdict.value}")
        zeros, anchor = zero_system(self.rot_target, self.rot_family)
        system = self.out("system", (list(full.system.zero_outcomes),
                                     full.system.anchor), r)
        require(system == (zeros, anchor),
                "zero constraints differ from the numpy zero outcomes")
        self.residuals.append(self.out("residual", full.feasibility.best_residual, r))

        with rec.lib():
            sub = ts.certify_strict_nonseparability(target, family[:3],
                                                    self.starts, seed)
        self.attempted += 1
        verdict = self.out("verdict_sub", sub.verdict.value, r)
        require(verdict == "NOT_CERTIFIED" and sub.feasibility.witness is not None,
                f"subfamily verdict {verdict}")
        self._check_witness(self.out("witness", sub.feasibility.witness_vector(),
                                     r).matrix)

        with rec.lib():
            once = ts.scan_separable_residual(full.system, self.scan_samples,
                                              self.scan_seed)
            twice = ts.scan_separable_residual(full.system,
                                               2 * self.scan_samples,
                                               self.scan_seed)
        self.attempted += 1
        twice = self.out("scan", twice, r)
        require(0.0 <= twice <= once,
                f"scan with twice the samples is larger ({twice!r} > {once!r})")

        with rec.lib():
            system = ts.zero_constraints(
                ts.TwoStateVector(self.target),
                [ts.validate_measurement(p) for p in self.family])
            reduction = ts.reduce_qutrit_family(system)
        self.attempted += 1
        require(self.out("reduction", reduction.contradiction, r) is True,
                "reduce_qutrit_family reports no contradiction")

        out = self.cli(rec, r, ["feasibility", "qutrit_signed", "qutrit_family_1",
                                "qutrit_family_2", "qutrit_family_3",
                                "qutrit_family_4", "--starts", "4", "--json"])
        require(out["verdict"] == "STRICTLY_NONSEPARABLE_EVIDENCE",
                f"cli feasibility verdict {out['verdict']}")
        out = self.cli(rec, r, ["reproduce", "3", "--json"])
        require(out["pass"] is True, "cli reproduce 3 fails")

    def _check_witness(self, phi: np.ndarray):
        sub = self.rot_family[:3]
        zeros, (am, ao) = zero_system(self.rot_target, sub)
        residual = sum(abs(np.trace(sub[mi][oi] @ phi)) ** 2 for mi, oi in zeros)
        require(residual <= DEFAULT_FEAS_TOL ** 2,
                f"subfamily witness violates the zero constraints ({residual:.3e})")
        require(abs(np.trace(sub[am][ao] @ phi))
                >= DEFAULT_ANCHOR_FLOOR - DEFAULT_FEAS_TOL,
                "subfamily witness falls below the anchor floor")

    def finish(self):
        zeros, anchor = zero_system(self.rot_target, self.rot_family)
        ref = minimum_residual(self.rot_family, zeros, anchor,
                               DEFAULT_ANCHOR_FLOOR)
        for value in self.residuals:
            require(abs(value - ref) <= 1e-6 * ref,
                    f"full-family residual {value!r} differs from the "
                    f"independent minimum {ref!r}")


# ---------------------------------------------------------------------------
# large-d: null subspaces and measurements at d = 32 and 64
# ---------------------------------------------------------------------------

class LargeD(Workload):
    """random_measurement, null_subspace and membership at large d, where
    the SVD in structure and the projector checks in measurement dominate."""

    name = "large-d"
    tag = 3

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        rng = self.rng
        self.dims = (32, 64) if scale >= 1.0 else (4, 6)
        self.cases = []
        for d in self.dims:
            self.cases.append({
                "d": d,
                "seed": int(rng.integers(2 ** 31)),
                "vectors": [rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d)) for _ in range(4)],
                "coeffs": rng.standard_normal(d * d - d)
                + 1j * rng.standard_normal(d * d - d),
            })
        small, large = (16, 32) if scale >= 1.0 else (3, 4)
        basis = haar_unitary(rng, small)
        k = int(rng.integers(2, small + 1))
        self.ws_small = grouped_projectors(basis, random_sizes(rng, small, k))
        self.ws_large = grouped_projectors(haar_unitary(rng, large), [1] * large)
        os.makedirs(OUTDIR, exist_ok=True)
        self.ws_path = os.path.join(OUTDIR, f"workspace-{os.getpid()}.json")

        def matrix(p):
            return [[[float(z.real), float(z.imag)] for z in row] for row in p]

        doc = {"measurements": {
            name: {"dim": projs[0].shape[0],
                   "projectors": [matrix(p) for p in projs]}
            for name, projs in (("small", self.ws_small), ("large", self.ws_large))
        }}
        with open(self.ws_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def cleanup(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.ws_path)

    def run_round(self, r, rec):
        # The CLI pair runs after each dimension: twice the samples of a
        # short, noisy call per round, and a repeat within the round.
        for case in self.cases:
            self._case(r, rec, case)
            self._cli(r, rec)

    def _cli(self, r, rec):
        out = self.cli(rec, r, ["nullspace", "small", "--workspace",
                                self.ws_path, "--json"])
        d, k = self.ws_small[0].shape[0], len(self.ws_small)
        require(out["null_dimension"] == d * d - k == len(out["basis"]),
                "cli nullspace dimension differs from d^2 - k")
        out = self.cli(rec, r, ["validate", "--workspace", self.ws_path, "--json"])
        require(out["ok"] is True and len(out["entries"]) == 2,
                "cli validate rejects the benchmark's workspace")

    def _case(self, r, rec, case):
        d = case["d"]
        with rec.lib():
            m = ts.random_measurement(d, d, case["seed"])
        self.attempted += 1
        projs = [p.matrix for p in self.out("random_measurement", m.projectors, r)]
        require(len(projs) == d, "random_measurement outcome count != d")
        for p in projs:
            require(close(p @ p, p, atol=1e-10) and close(p, p.conj().T, atol=1e-12)
                    and abs(np.trace(p) - 1.0) < 1e-10,
                    "random_measurement returned a non-projector")
        require(close(sum(projs), np.eye(d), atol=1e-10),
                "random_measurement projectors do not sum to the identity")

        with rec.lib():
            ns = ts.null_subspace(m)
        self.attempted += 1
        basis = self.out("null_basis", ns.basis, r)
        require(len(basis) == ns.dim == d * d - d, "null dimension != d^2 - k")
        # A random combination z = sum_j y_j b_j: the basis is orthonormal iff
        # every coefficient comes back as <b_j, z> (true for random y only
        # then), and its amplitudes vanish iff those of every b_j do.
        y = case["coeffs"]
        z = np.zeros((d, d), dtype=complex)
        for c, b in zip(y, basis):
            z += c * b.matrix
        back = np.array([np.vdot(b.matrix, z) for b in basis])
        require(close(back, y, atol=1e-9), "null basis is not orthonormal")
        require(np.max(np.abs(amplitudes(projs, z))) <= 1e-9 * np.linalg.norm(z),
                "null basis vectors have non-vanishing amplitudes")

        with rec.lib():
            inside = ts.membership_in_null(ts.TwoStateVector(z), ns)
            outside = ts.membership_in_null(ts.TwoStateVector(np.eye(d) / d), ns)
        self.attempted += 1
        require(self.out("membership", (inside, outside), r) == (True, False),
                "membership: a basis combination is out or I/d is in")
        del ns, basis

        for raw in case["vectors"]:
            with rec.lib():
                v = ts.TwoStateVector(raw)
                story = ts.forms_story(v, m)
                dist = ts.abl_probabilities(v, m)
                cert = ts.find_story_measurement(v)
            self.attempted += 1
            require(self.out("forms_story", story, r) is True,
                    "a generic vector forms no story")
            self.check_abl(dist, projs, raw, r)
            self.check_certificate(cert, raw, "DIAGONAL", r)


WORKLOADS = {w.name: w for w in (Sweep, Certify, LargeD)}
