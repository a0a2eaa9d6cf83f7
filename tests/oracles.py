"""Independent reference implementations used only by the tests.

These deliberately avoid the library's iteration/sampling code paths:
the score solver is a dense linear solve, the Pareto generator is the
textbook inverse-CDF formula, and the histogram builders are plain loops.
"""

import numpy as np

from ranktail.graph import Graph


def dense_pagerank(g: Graph, c: float) -> np.ndarray:
    """Solve the score equations exactly:
    r = c*A*r + (c/n)*ones*sum_dangling(r) + (1-c)*ones."""
    n = g.n
    A = np.zeros((n, n))
    for i in range(n):
        for j in g.in_src[g.in_ptr[i]:g.in_ptr[i + 1]]:
            A[i, j] += 1.0 / g.out_deg[j]
    M = np.eye(n) - c * A
    M[:, g.out_deg == 0] -= c / n
    return np.linalg.solve(M, (1.0 - c) * np.ones(n))


def random_small_graph(rng: np.random.Generator, n_max: int = 6) -> Graph:
    """Random directed multigraph with self-loops, duplicates and dangling nodes."""
    n = int(rng.integers(1, n_max + 1))
    src, dst = [], []
    for s in range(n):
        if rng.random() < 0.25:
            continue  # leave s dangling
        for t in range(n):
            if rng.random() < 0.4:
                copies = 1 + (rng.random() < 0.15)  # occasional multi-edge
                src += [s] * copies
                dst += [t] * copies
    return Graph.from_edges(np.array(src, dtype=np.int64),
                            np.array(dst, dtype=np.int64), n)


def pareto_samples(rng: np.random.Generator, alpha: float, x_min: float, size: int):
    """Textbook inverse-CDF Pareto: P(X > x) = (x/x_min)^(-alpha)."""
    u = rng.uniform(0.0, 1.0, size)
    return x_min * (1.0 - u) ** (-1.0 / alpha)


def brute_force_ccdf(values):
    """Quadratic-time strict greater-than tail fractions at distinct positives."""
    values = list(values)
    n = len(values)
    points = []
    for x in sorted({v for v in values if v > 0}):
        frac = sum(1 for v in values if v > x) / n
        if frac > 0:
            points.append((x, frac))
    return points


def solved_histogram(alpha: float, d: float, p0: float, b: float,
                     atoms=(1, 8, 100)) -> dict[int, float]:
    """Three-atom out-degree histogram with prescribed mean, dangling
    fraction and tail factor b = sum p_j j^(1-alpha)."""
    j1, j2, j3 = atoms
    A = np.array([[1.0, 1.0, 1.0],
                  [j1, j2, j3],
                  [j1 ** (1 - alpha), j2 ** (1 - alpha), j3 ** (1 - alpha)]])
    p = np.linalg.solve(A, np.array([1.0 - p0, d, b]))
    if not (p > 0).all():
        raise ValueError(f"targets not representable on atoms {atoms}: {p}")
    hist = {0: p0}
    hist.update({int(j): float(q) for j, q in zip(atoms, p)})
    return hist


# SecondGeneration: trees per chunk of direct draws; log-spaced strata per
# decade of the Pareto rates and the top stratum edge of the path estimator;
# paths per batch and children per call of _increment (bound memory ~100 MB)
_TREE_CHUNK = 1 << 16
_STRATA_PER_DECADE = 16
_TOP_RATE = 1e15
_PATH_BATCH = 100
_MAX_CHILDREN = 1 << 21


class SecondGeneration:
    """Pool-free references for the law of R_2, two generations of
    R = c * sum_{j<=N} R_j / D_j + b from the all-ones start (b = 1 - c(1-p0)).

    The root has N = Poisson(T_0) children, child j has out-degree D_j from
    q_j = j p_j / d and its own Poisson(T_j) grandchildren, every rate
    Pareto(alpha) with scale d(alpha-1)/alpha; so
    R_2 = b + c * sum_j (b + c G_j) / D_j with G_j the sum of 1/D over the
    grandchildren of child j.  Written from the model definition alone: no
    library sampling code is used.
    """

    def __init__(self, c: float, alpha: float, d: float, outdeg_hist: dict):
        self.c, self.alpha = c, alpha
        self.t_min = d * (alpha - 1.0) / alpha
        self.baseline = 1.0 - c * (1.0 - outdeg_hist.get(0, 0.0))
        self.classes = np.array(sorted(j for j, p in outdeg_hist.items() if j >= 1 and p > 0),
                                dtype=float)
        q = self.classes * np.array([outdeg_hist[int(j)] for j in self.classes]) / d
        self.q = q / q.sum()

    def _sf(self, t):
        """P(T > t) of a Pareto rate."""
        return (np.maximum(t, self.t_min) / self.t_min) ** -self.alpha

    def _rates(self, rng, lo=None, hi=np.inf, size=None):
        """Inverse-CDF Pareto rates, conditioned on [lo, hi) when lo is given."""
        if lo is None:
            return self.t_min * (1.0 - rng.random(size)) ** (-1.0 / self.alpha)
        s_lo, s_hi = self._sf(lo), self._sf(hi)
        u = rng.random(np.broadcast(lo, hi).shape)
        return self.t_min * (s_lo - u * (s_lo - s_hi)) ** (-1.0 / self.alpha)

    def sample(self, rng: np.random.Generator, size: int):
        """Direct draws of R_2, one tree each: the grandchildren of every
        child are split into out-degree classes by successive binomial draws,
        so the cost is O(children)."""
        out = np.empty(size)
        cum = np.cumsum(self.q)
        for start in range(0, size, _TREE_CHUNK):
            m = min(_TREE_CHUNK, size - start)
            n = rng.poisson(self._rates(rng, size=m))
            total = int(n.sum())
            d_child = self.classes[np.minimum(np.searchsorted(cum, rng.random(total),
                                                              side="right"), cum.size - 1)]
            rest = rng.poisson(self._rates(rng, size=total))
            g = np.zeros(total)
            left = 1.0
            for j, qj in zip(self.classes[:-1], self.q[:-1]):
                k = rng.binomial(rest, min(qj / left, 1.0))
                g += k / j
                rest -= k
                left -= qj
            g += rest / self.classes[-1]
            r1 = self.baseline + self.c * g
            owners = np.repeat(np.arange(m), n)
            out[start:start + m] = self.baseline + self.c * np.bincount(
                owners, weights=r1 / d_child, minlength=m)
        return out

    def tail_paths(self, rng: np.random.Generator, xs, n_paths: int):
        """Conditional Monte Carlo estimates of P(R_2 > x) at every x.

        Returns an (n_paths, len(xs)) array; each row is an independent,
        unbiased estimate, so row means and their covariance give the CCDF
        and its error, correlation between the x included.

        Write R_2 = b + c Z(T_0): the root's children are the points of a
        unit-rate Poisson process on [0, T_0], each adding (b + c G_j)/D_j,
        so one path of Z(t) serves every value of T_0.  With M(t) the
        largest child rate among the children up to time t, split on which
        Pareto rate of the tree is the largest:

        * the root's: P(Z(T_0) > y, M(T_0) < T_0).  T_0 is stratified on
          log-spaced strata (plus the one above the top edge), one draw per
          stratum, all on the same path.
        * a child's: by the Mecke formula for Poisson points this is
          E[T_0 1{V > T_0, V > M(T_0)} 1{Z(T_0) + (b + c G(V))/D > y}]
          over an added child of rate V, out-degree D and grandchild total
          G(V).  V is stratified on the same strata, with one grandchild
          process per path; the D classes are summed exactly.

        No likelihood ratios appear; the error comes from the fluctuations
        of Z alone.  Z is simulated (per-class Poisson children, their rates
        summed per class, grandchildren Poisson in that sum) until it passes
        the deepest y; after that only M is needed, and the largest of a
        Poisson number of Pareto rates has a closed-form inverse CDF.  The
        cost is O(children up to that point) per path.
        """
        ys = (np.asarray(xs, dtype=float) - self.baseline) / self.c
        decades = np.log10(_TOP_RATE / self.t_min)
        edges = self.t_min * np.logspace(0.0, decades,
                                         int(round(decades * _STRATA_PER_DECADE)) + 1)
        masses = self._sf(edges[:-1]) - self._sf(edges[1:])
        rows = [self._path_batch(rng, min(_PATH_BATCH, n_paths - s), ys, edges, masses)
                for s in range(0, n_paths, _PATH_BATCH)]
        return np.concatenate(rows)

    def _increment(self, rng, dt):
        """Gain of Z and largest child rate over durations dt (one per path)."""
        n = rng.poisson(dt[:, None] * self.q)
        flat = n.ravel()
        rates = self._rates(rng, size=int(flat.sum()))
        group = np.repeat(np.arange(flat.size), flat)
        rate_sums = np.bincount(group, weights=rates, minlength=flat.size).reshape(n.shape)
        largest = np.zeros(flat.size)
        np.maximum.at(largest, group, rates)
        g = (rng.poisson(rate_sums[..., None] * self.q) / self.classes).sum(-1)
        z = ((n * self.baseline + self.c * g) / self.classes).sum(-1)
        return z, largest.reshape(n.shape).max(-1)

    def _largest_rate(self, rng, dt):
        """Largest rate among Poisson(dt) children, 0 when there are none:
        P(max <= m) = exp(-dt P(T > m))."""
        e = rng.exponential(size=np.shape(dt))
        some = e < dt
        frac = np.where(some, e / np.where(some, dt, 1.0), 1.0)
        return np.where(some, self.t_min * frac ** (-1.0 / self.alpha), 0.0)

    def _path_batch(self, rng, n, ys, edges, masses):
        lo, hi = edges[:-1], edges[1:]
        k = lo.size
        t = self._rates(rng, np.broadcast_to(lo, (n, k)), np.broadcast_to(hi, (n, k)))
        dt = np.diff(t, axis=1, prepend=0.0)
        z = np.empty((n, k))
        m = np.empty((n, k))
        z_now, m_now = np.zeros(n), np.zeros(n)
        i = 0
        while i < k and (z_now <= ys.max()).any():
            step = max(1, int(_MAX_CHILDREN // max(dt[:, i].sum(), 1.0)))
            for s in range(0, n, step):
                gain, largest = self._increment(rng, dt[s:s + step, i])
                z_now[s:s + step] += gain
                m_now[s:s + step] = np.maximum(m_now[s:s + step], largest)
            z[:, i], m[:, i] = z_now, m_now
            i += 1
        if (z_now <= ys.max()).any():
            raise ValueError("x too deep: Z has not passed it at the top stratum edge")
        z[:, i:] = z_now[:, None]
        m[:, i:] = np.maximum.accumulate(
            np.maximum(self._largest_rate(rng, dt[:, i:]), m_now[:, None]), axis=1)
        # the stratum above the top edge: Z has passed every y there
        t_above = self._rates(rng, np.full(n, edges[-1]))
        m_above = np.maximum(m[:, -1], self._largest_rate(rng, t_above - t[:, -1]))
        p_above = self._sf(edges[-1])

        root = ((z[:, None, :] > ys[None, :, None]) & (m < t)[:, None, :]) @ masses
        root += (p_above * (m_above < t_above))[:, None]

        v = self._rates(rng, np.broadcast_to(lo, (n, k)), np.broadcast_to(hi, (n, k)))
        dv = np.diff(v, axis=1, prepend=0.0)
        g = np.cumsum((rng.poisson(dv[..., None] * self.q) / self.classes).sum(-1), axis=1)
        y_child = (self.baseline + self.c * g[..., None]) / self.classes
        v_above = self._rates(rng, np.full(n, edges[-1]))
        # T_0 and M are nondecreasing along a path, so the strata with
        # max(T_0, M) < V form a prefix, and those with Z > y - Y a suffix
        tm = np.maximum(t, m)
        weight = np.concatenate([np.zeros((n, 1)), np.cumsum(masses * t, axis=1)], axis=1)
        child = np.empty((n, ys.size))
        for p in range(n):
            below = weight[p][np.searchsorted(tm[p], v[p], side="left")]
            above = weight[p][np.searchsorted(z[p], ys[:, None, None] - y_child[p][None],
                                              side="right")]
            child[p] = (np.maximum(below[None, :, None] - above, 0.0) @ self.q) @ masses
            # a child rate above the top edge: its grandchild total exceeds any y
            child[p] += p_above * weight[p][np.searchsorted(tm[p], v_above[p], side="left")]
            if v_above[p] > max(t_above[p], m_above[p]):
                child[p] += p_above * p_above * t_above[p]
        return root + child


def ccdf_reference(values):
    """(xs, fractions) of tails.ccdf, found over the whole sorted array at
    once, as ccdf did before it compacted its points into its sorted copy."""
    v = np.asarray(values, dtype=float).ravel()
    pos = np.sort(v[v > 0])
    last = np.flatnonzero(pos[1:] != pos[:-1])
    return pos[last], (pos.size - 1 - last) / v.size
