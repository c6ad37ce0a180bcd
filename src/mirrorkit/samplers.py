"""Exponential-family samplers built on tabulated inverse CDFs.

Weight priors have densities proportional to exp(-D_psi(w, w0) / eta) and
noise densities are proportional to exp(-l(v)). Both factor per coordinate
for the separable potentials here, so sampling reduces to one-dimensional
inverse-transform draws from a tabulated CDF. The Gaussian special cases
(squared-L2 potential, quadratic loss) short-circuit to exact Box-Muller
draws; a flag forces the tabulated path so the two can be compared, for
instance with the two-sample Kolmogorov-Smirnov test below.

Box-Muller calls no cos or sin. The angle uniform a loses h = rint(2a) half
turns exactly, and t = tan(pi (a - h/2)) in [-1, 1] gives
cos 2 pi a = (-1)^h (1 - t^2) / (1 + t^2) and sin 2 pi a = (-1)^h 2t / (1 + t^2),
within 3.7e-16 r of mpmath's values where libm's cos and sin of the rounded
2 pi a read 6.9e-16 r. As with np.log and np.exp, the last bit of a value
can differ with numpy's CPU dispatch (NPY_DISABLE_CPU_FEATURES).

The transform is one kernel, `box_muller_pairs`, from a block of radius
uniforms and a block of angle uniforms of one shape, every pass of which
writes a contiguous temporary of that shape. `box_muller` hands it row
blocks of at most BLOCK_VALUES pairs, so the temporaries stay in cache, and
writes each block's cosines and sines once into the interleaved output;
`white_noise_window` makes the radius and angle uniforms of its runs in one
counter pass, as two contiguous halves, and hands them over the same way.
"""

import logging
import math
from types import SimpleNamespace

import numpy as np

from .errors import GridError
from .losses import Quadratic
from .potentials import NegEntropy, SeparableQ, SquaredL2

log = logging.getLogger("mirrorkit")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the array mixing's operands as numpy scalars, which a ufunc call takes without converting a Python int
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_U11, _U27, _U30, _U31 = (np.uint64(b) for b in (11, 27, 30, 31))
STREAM_TRIAL_BASE = 1000  # trial t draws from stream 1000 + t
BLOCK_VALUES = 1 << 14  # trial uniforms, or Box-Muller pairs, made in one pass

GRID_HALF_WIDTH = 12.0  # scale units on each side of the peak, before doubling
GRID_POINTS = 4096
BOUNDARY_DENSITY = 1e-16
TAIL_MASS_LIMIT = 1e-8
_MAX_DOUBLINGS = 40


def _splitmix64(z):
    """Finalizer of the splitmix64 generator (Steele, Lea & Flood), on a
    Python int, masked to 64 bits, or elementwise on a uint64 array, whose
    arithmetic wraps modulo 2^64 without a mask; the array is not written."""
    if not isinstance(z, int):
        z = np.array(z, dtype=np.uint64)
        _mix_in_place(z, np.empty_like(z))
        return z
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix_in_place(z, t):
    """`_splitmix64` of the uint64 array z written over z, every pass an
    out= ufunc on z or on t, a scratch array of z's shape."""
    np.right_shift(z, _U30, out=t)
    z ^= t
    z *= _MIX1
    np.right_shift(z, _U27, out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, _U31, out=t)
    z ^= t


def derive_seed(seed, stream_index):
    """Counter-based child seed: splitmix64(seed + (index+1) * golden ratio)."""
    return _splitmix64((int(seed) + (int(stream_index) + 1) * _GOLDEN) & _MASK64)


def trial_uniforms(seed, n, k, column=0, first=0):
    """An (n, k) block of U[0, 1) variates for trials first .. first+n-1:
    the row of trial t holds outputs column .. column+k-1 of the splitmix64
    generator started at `derive_seed(seed, STREAM_TRIAL_BASE + t)`, each
    mapped to (x >> 11) * 2^-53; a t below 0 gives the row of `RngStream`
    STREAM_TRIAL_BASE + t. A row depends only on (seed, t), and each of its
    columns is computed directly from its counter, so a window of
    rows or columns equals those of any larger block bit for bit
    (counter-based streams; Salmon et al., SC 2011). A sequence of first
    columns gives one contiguous (n, k) block per entry, shape (m, n, k),
    all mixed in the same pass. The uint64 arithmetic wraps modulo 2^64 on
    arrays, silently; blocks of rows, or of the columns of a wide row, are
    mixed at most BLOCK_VALUES values at a time to bound the temporaries."""
    golden = np.uint64(_GOLDEN)
    trials = np.arange(n, dtype=np.uint64) + np.uint64(first + STREAM_TRIAL_BASE + 1)
    starts = _splitmix64(np.uint64(int(seed) & _MASK64) + trials * golden)[:, None]
    columns = np.asarray(column, dtype=np.uint64)[..., None, None]
    steps = (columns + np.arange(1, k + 1, dtype=np.uint64)) * golden
    out = np.empty(columns.shape[:-2] + (n, k))
    rows = max(1, BLOCK_VALUES // max(steps.size, 1))
    cols = max(1, BLOCK_VALUES // columns.size)
    for r in range(0, n, rows):
        for c in range(0, k, cols):
            x = starts[r : r + rows] + steps[..., c : c + cols]
            _mix_in_place(x, np.empty_like(x))
            x >>= _U11
            # below 2^53 after the shift, so the int64 view converts exactly, and faster than uint64
            np.multiply(x.view(np.int64), 2.0**-53, out=out[..., r : r + rows, c : c + cols])
    return out


def one_draw(draw, rng):
    """The draw of a (k, values) pair on one row of k uniforms from the
    stream `rng`; a batch maps a (rows, k) block with `values` itself."""
    k, values = draw
    return values(rng.uniform((1, k)))[0]


def box_muller_pairs(R, A):
    """The Box-Muller pairs (c, s) = r (cos 2 pi a, sin 2 pi a),
    r = sqrt(-2 log(1 - R)), of the radius uniforms R and the angle uniforms
    A = a, two arrays of one shape, through the half-turn reduction and
    half-angle formulas of the module docstring, with
    (-1)^h = 2 (h - 1)^2 - 1. A value depends only on its two uniforms;
    a = 0 gives (r, 0) and a = 1/2 gives (-r, -0). Every pass writes a
    contiguous temporary of that shape: c, s or one of two more."""
    h = np.multiply(A, 2.0)
    np.rint(h, out=h)
    t = np.multiply(h, -0.5)
    t += A
    t *= np.pi
    np.tan(t, out=t)
    c = np.multiply(t, t)
    h -= 1.0  # the sign 2 (h - 1)^2 - 1 over 1 + t^2
    h *= h
    h += h
    h -= 1.0
    s = np.add(c, 1.0)
    h /= s
    np.add(t, t, out=s)
    s *= h
    np.subtract(1.0, c, out=c)
    c *= h
    np.subtract(1.0, R, out=t)  # the radii
    np.log(t, out=t)
    t *= -2.0
    np.sqrt(t, out=t)
    c *= t
    s *= t
    return c, s


def _interleaved_pairs(R, A):
    """(rows, 2 * pairs) normals from the (rows, pairs) radius and angle
    uniforms, pair i of a row at columns 2i and 2i + 1: `box_muller_pairs`
    on blocks of at most BLOCK_VALUES pairs, so its temporaries stay in
    cache, and each block's c and s written once into the output."""
    pairs = R.shape[1]
    z = np.empty((len(R), 2 * pairs))
    rows = max(1, BLOCK_VALUES // max(pairs, 1))
    for r in range(0, len(R), rows):
        z[r : r + rows, 0::2], z[r : r + rows, 1::2] = box_muller_pairs(R[r : r + rows], A[r : r + rows])
    return z


def box_muller(u, n):
    """n standard normals from each row of the uniforms `u`, shape
    (rows, n + n % 2), by the Box-Muller transform: a row's first half holds
    the radius uniforms, its second half the angle uniforms, and pair i,
    `box_muller_pairs` of column i of each half, fills normals 2i and 2i + 1.
    Rows go through the transform in blocks of at most BLOCK_VALUES pairs,
    so besides the output it holds only the kernel's four buffers of one
    block; the values do not depend on the blocks."""
    pairs = (n + 1) // 2
    return _interleaved_pairs(u[:, :pairs], u[:, pairs:])[:, :n]


class RngStream:
    """A named, reproducible random stream: the splitmix64 generator started
    at `derive_seed(seed, stream_index)`, which is the row of `trial_uniforms`
    at t = stream_index - STREAM_TRIAL_BASE, read in order: each `uniform`
    call continues the last. Distinct indices give independent streams."""

    def __init__(self, seed, stream_index=0):
        self.seed = int(seed)
        self.stream_index = int(stream_index)
        self.drawn = 0

    def uniform(self, size):
        """The stream's next prod(size) U[0, 1) variates, in shape `size`."""
        k = int(np.prod(size))
        u = trial_uniforms(self.seed, 1, k, column=self.drawn, first=self.stream_index - STREAM_TRIAL_BASE)
        self.drawn += k
        return u.reshape(size)

    def normal(self, size):
        """Standard normals of shape `size`, one Box-Muller draw of all
        n = prod(size) values. All radii come before all angles
        (`box_muller`), so a shorter draw is not a prefix of a longer one."""
        n = int(np.prod(size))
        return box_muller(self.uniform((1, n + n % 2)), n)[0].reshape(size)


def _cumulative_trapezoid(y, x):
    """Running trapezoid-rule integral of y over the grid x, starting at 0."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


class TabulatedDensity:
    """Inverse-CDF table for a 1-D density exp(-d(x) / eta).

    `d` is a convex function minimized (with value 0) at `center`; `dprime`
    is its derivative. The grid spans GRID_HALF_WIDTH scale units on each
    side of the center, doubling until the boundary density falls below
    1e-16 of the peak (unless the boundary is the domain edge `lower`).
    Log-concavity gives a rigorous truncated-tail bound, which must stay
    below 1e-8 of the total mass.
    """

    def __init__(self, d, dprime, center, eta, scale, lower=None):
        self.center = float(center)
        half = GRID_HALF_WIDTH * scale
        for _ in range(_MAX_DOUBLINGS):
            lo = self.center - half
            hi = self.center + half
            clipped_lo = False
            if lower is not None and lo < lower:
                lo, clipped_lo = lower, True
            ok_lo = clipped_lo or np.exp(-d(lo) / eta) < BOUNDARY_DENSITY
            ok_hi = np.exp(-d(hi) / eta) < BOUNDARY_DENSITY
            if ok_lo and ok_hi:
                break
            half *= 2.0
        xs = np.linspace(lo, hi, GRID_POINTS)
        dens = np.exp(-d(xs) / eta)
        cdf = _cumulative_trapezoid(dens, xs)
        total = cdf[-1]
        if not (np.isfinite(total) and total > 0.0):
            raise GridError("tabulated density has no finite mass on the grid")
        tail = 0.0
        if not clipped_lo:
            slope = -float(dprime(lo))
            tail += np.inf if slope <= 0.0 else float(dens[0]) * eta / slope
        slope = float(dprime(hi))
        tail += np.inf if slope <= 0.0 else float(dens[-1]) * eta / slope
        if not tail / total < TAIL_MASS_LIMIT:
            raise GridError(
                f"truncated tail mass {tail / total:.3e} of the tabulated density "
                f"exceeds {TAIL_MASS_LIMIT} (grid too narrow)"
            )
        self.xs = xs
        self.pdf = dens / total
        self.cdf = cdf / total
        self.normalization = float(total)
        self.tail_bound = float(tail / total)
        self._open_lower = lower if clipped_lo else None
        log.debug(
            "tabulated density on [%g, %g] (%d points): normalization %.12g, tail bound %.2e",
            lo, hi, GRID_POINTS, self.normalization, self.tail_bound,
        )

    def ppf(self, u):
        """Monotone-interpolated inverse CDF."""
        w = np.interp(u, self.cdf, self.xs)
        if self._open_lower is not None:
            w = np.maximum(w, np.nextafter(self._open_lower, np.inf))
        return w


def _laplace_scale(p1, c, eta):
    """Characteristic width sqrt(eta / psi''(c)) of the density peak.

    For SeparableQ the curvature at 0 is zero or unbounded, so the unit
    e-folding distance of |x|^q / (q eta) caps the estimate; an undershoot
    is harmless because the grid doubles itself as needed.
    """
    if isinstance(p1, SeparableQ):
        q = p1.q
        fold = float((q * eta) ** (1.0 / q))
        if c == 0.0:
            return fold
        curvature = (q - 1.0) * abs(c) ** (q - 2.0)
        if not (np.isfinite(curvature) and curvature > 1e-12):
            return fold
        return max(min(float(np.sqrt(eta / curvature)), fold), 1e-6 * fold)
    curvature = float(p1.hessian_diag(np.array([c]))[0])
    return float(np.sqrt(eta / curvature))


def _coordinate_bregman(p1, c):
    """Scalar Bregman divergence x -> D_psi(x, c) for a 1-D potential."""
    if isinstance(p1, SquaredL2):
        return (lambda x: 0.5 * (x - c) ** 2), (lambda x: x - c)
    if isinstance(p1, NegEntropy):
        # x log(x / c) takes its limit 0 at x = 0, finite and warning-free there
        d = lambda x: x * np.log(np.where(np.asarray(x) == 0.0, 1.0, x / c)) - x + c
        dp = lambda x: np.log(x / c) if x > 0 else -np.inf
        return d, dp
    q = p1.q
    gc = np.sign(c) * np.abs(c) ** (q - 1.0)
    d = lambda x: np.abs(x) ** q / q - np.abs(c) ** q / q - gc * (x - c)
    dp = lambda x: np.sign(x) * np.abs(x) ** (q - 1.0) - gc
    return d, dp


class ExpFamilySpec:
    """Weight prior exp(-D_psi(w, center) / scale) over a separable potential."""

    def __init__(self, potential, center, scale):
        if not scale > 0.0:
            raise ValueError("scale must be > 0")
        self.potential = potential
        self.center = potential.check_domain(np.asarray(center, dtype=float)).copy()
        self.scale = float(scale)

    def _one_dim(self):
        p = self.potential
        if isinstance(p, SeparableQ):
            return SeparableQ(p.q, 1)
        return type(p)(1)

    def tables(self):
        """Per-coordinate inverse-CDF tables, each built once per process."""
        p1 = self._one_dim()
        return [_prior_table(p1, float(c), self.scale) for c in self.center]


_PRIOR_TABLES = {}


def _prior_table(p1, c, scale):
    """Table of exp(-D_psi(x, c) / scale) for the 1-D potential p1, memoized
    like `_noise_table`: specs that share a prior coordinate share its table."""
    key = (p1.kind, getattr(p1, "q", None), c, scale)
    if key not in _PRIOR_TABLES:
        d, dp = _coordinate_bregman(p1, c)
        s = _laplace_scale(p1, c, scale)
        lower = 0.0 if isinstance(p1, NegEntropy) else None
        _PRIOR_TABLES[key] = TabulatedDensity(d, dp, c, scale, s, lower=lower)
    return _PRIOR_TABLES[key]


def weight_draw(spec, size=None, force_tabulated=False):
    """(k, values): `size` weight vectors take k uniforms, and `values` maps a
    (rows, k) block of them to (rows, dim) weights, or (rows, size, dim).
    Tabulated draws take one uniform per value in order; squared-L2 ones are
    exact N(center, scale), one Box-Muller draw of all size * dim values."""
    shape = (spec.potential.dim,) if size is None else (int(size), spec.potential.dim)
    m = math.prod(shape)
    if isinstance(spec.potential, SquaredL2) and not force_tabulated:
        root = np.sqrt(spec.scale)
        return m + m % 2, lambda U: spec.center + root * box_muller(U, m).reshape(-1, *shape)
    tabs = spec.tables()

    def values(U):
        out = U.reshape(-1, *shape).copy()
        for j, tab in enumerate(tabs):
            out[..., j] = tab.ppf(out[..., j])
        return out

    return m, values


def sample_weight(spec, rng, size=None, force_tabulated=False):
    """Weight vectors from the exponential-family prior, shape (dim,) for
    size=None, else (size, dim). A single tabulated draw is the first row of
    a batch from an identically constructed stream; a squared-L2 one is not."""
    return one_draw(weight_draw(spec, size, force_tabulated), rng)


_NOISE_TABLES = {}


def _noise_table(l):
    if l.kind not in _NOISE_TABLES:
        curvature = float(l.second_deriv(0.0))
        scale = 1.0 / np.sqrt(curvature) if curvature > 1e-12 else float(4.0**0.25)
        _NOISE_TABLES[l.kind] = TabulatedDensity(l.value, l.deriv, 0.0, 1.0, scale)
    return _NOISE_TABLES[l.kind]


def noise_draw(l, size, force_tabulated=False):
    """(k, values): `size` noises with density proportional to exp(-l(v))
    take k uniforms, and `values` maps a (rows, k) block of them to (rows,
    size) noises. The quadratic loss short-circuits to exact N(0, 1) draws."""
    n = int(size)
    if isinstance(l, Quadratic) and not force_tabulated:
        return n + n % 2, lambda U: box_muller(U, n)
    return n, _noise_table(l).ppf


def sample_noise(l, rng, size, force_tabulated=False):
    return one_draw(noise_draw(l, size, force_tabulated), rng)


class MirrorMeanReport(SimpleNamespace):
    """Monte Carlo check that the mean of grad psi(w), mc_estimate, equals
    grad psi(center), target, within sigma_bound, and whether it passed."""


def mirror_mean_check(spec, n_samples, rng):
    """Certify E[grad psi(w)] = grad psi(center) within a 3-sigma MC band."""
    if n_samples < 10_000:
        raise ValueError("n_samples must be at least 10^4 for a meaningful band")
    draws = sample_weight(spec, rng, size=n_samples)
    mirror = spec.potential.grad(draws)
    est = mirror.mean(axis=0)
    sd = mirror.std(axis=0, ddof=1)
    bound = 3.0 * sd / np.sqrt(n_samples)
    target = spec.potential.grad(spec.center)
    return MirrorMeanReport(mc_estimate=est, target=target, sigma_bound=bound,
                            passed=bool(np.all(np.abs(est - target) <= bound)))


def white_noise_draw(kind, variance, size):
    """(k, values): `size` zero-mean noises of the given variance from the
    named family (gaussian, uniform or rademacher) take k uniforms, and
    `values` maps a (rows, k) block of them to (rows, size) noises."""
    n = int(size)
    sd = np.sqrt(variance)
    if kind == "gaussian":
        return n + n % 2, lambda U: sd * box_muller(U, n)
    if kind == "uniform":
        return n, lambda U: (U - 0.5) * np.sqrt(12.0) * sd
    if kind == "rademacher":
        return n, lambda U: np.where(U < 0.5, -sd, sd)
    raise ValueError(f"unknown white-noise kind {kind!r}")


def white_noise_window(kind, variance, T, seed, n, a, b):
    """Steps a .. b-1 of runs 0 .. n-1 of the T-step white noise
    `white_noise_draw(kind, variance, T)` on the rows of `trial_uniforms`,
    shape (n, b - a), equal bit for bit to those columns of the full draw
    and reading only the uniforms they take. Uniform and Rademacher noise
    read columns a .. b-1; Gaussian step i is half of the Box-Muller pair
    i // 2, whose radius is column i // 2 and whose angle is column
    P + i // 2, P = (T + 1) // 2. The pairs the window touches, columns
    lo .. and P + lo .. of every run, come from one counter pass as two
    contiguous (n, pairs) halves, go through the transform in row blocks,
    and the window drops a leading sine or trailing cosine outside it."""
    if kind != "gaussian":
        return white_noise_draw(kind, variance, b - a)[1](trial_uniforms(seed, n, b - a, column=a))
    lo, pairs = a // 2, (b + 1) // 2 - a // 2
    R, A = trial_uniforms(seed, n, pairs, column=(lo, (T + 1) // 2 + lo))
    return np.sqrt(variance) * _interleaved_pairs(R, A)[:, a - 2 * lo : b - 2 * lo]


def sample_white_noise(kind, variance, rng, size):
    """`size` zero-mean noises of the given variance from the named family."""
    return one_draw(white_noise_draw(kind, variance, size), rng)


def kolmogorov_sf(lam):
    """P(K > lam) for the limiting Kolmogorov distribution K.

    From 0.82 up the alternating series 2 sum_k (-1)^(k-1) exp(-2 k^2 lam^2)
    converges in a few terms. Below it that series cancels badly, so the
    complement of the theta-function form of the CDF,
    sqrt(2 pi) / lam * sum_k exp(-(2k - 1)^2 pi^2 / (8 lam^2)), is used
    instead (Marsaglia, Tsang & Wang, J. Stat. Softw. 8(18), 2003).
    """
    lam = float(lam)
    if lam <= 0.0:
        return 1.0
    k = np.arange(1, 21)
    if lam < 0.82:
        terms = np.exp(-(((2 * k - 1) * np.pi / lam) ** 2) / 8.0)
        return float(1.0 - np.sqrt(2.0 * np.pi) / lam * np.sum(terms))
    return float(2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * (k * lam) ** 2)))


def ks_two_sample(a, b):
    """Two-sided two-sample Kolmogorov-Smirnov test of equal distributions;
    returns (statistic, pvalue).

    The statistic D is the largest gap between the two empirical CDFs, which
    is attained at an observation. D is a multiple of 1 / lcm(n, m) for
    sample sizes n and m, so the float gap is rounded onto that lattice. The
    p-value is the limiting one, P(K > D sqrt(n m / (n + m))).
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    n, m = a.size, b.size
    if n == 0 or m == 0:
        raise ValueError("both samples must be non-empty")
    pooled = np.concatenate([a, b])
    gap = np.searchsorted(a, pooled, side="right") / n - np.searchsorted(b, pooled, side="right") / m
    lcm = math.lcm(n, m)
    d = round(float(np.max(np.abs(gap))) * lcm) / lcm
    return d, kolmogorov_sf(d * np.sqrt(n * m / (n + m)))
