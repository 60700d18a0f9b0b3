"""Independent brute-force oracles used to pin expected test values.

Everything here is written with plain Python loops and its own formulas,
deliberately sharing no code with the package implementation. The
gradient-check oracle runs the engine only to evaluate the objective it is
given and that objective's backward pass.
"""

import math

from mmtseg.tensor import no_grad


def oracle_dice(a, b):
    na = nb = inter = 0
    for idx in _indices(a.shape):
        va, vb = bool(a[idx]), bool(b[idx])
        na += va
        nb += vb
        inter += va and vb
    if na + nb == 0:
        return 1.0
    return 2.0 * inter / (na + nb)


def oracle_boundary(mask):
    pts = []
    shape = mask.shape
    for idx in _indices(shape):
        if not mask[idx]:
            continue
        d, h, w = idx
        for nd, nh, nw in (
            (d - 1, h, w),
            (d + 1, h, w),
            (d, h - 1, w),
            (d, h + 1, w),
            (d, h, w - 1),
            (d, h, w + 1),
        ):
            outside = (
                nd < 0 or nh < 0 or nw < 0
                or nd >= shape[0] or nh >= shape[1] or nw >= shape[2]
            )
            if outside or not mask[nd, nh, nw]:
                pts.append((d, h, w))
                break
    return pts


def oracle_surface_distances(a, b):
    """Pooled directed boundary-to-boundary distances, both directions."""
    pa = oracle_boundary(a)
    pb = oracle_boundary(b)
    dists = [min(math.dist(p, q) for q in pb) for p in pa]
    dists += [min(math.dist(q, p) for p in pa) for q in pb]
    return dists


def oracle_quantile(values, q):
    """Linear-interpolation quantile of a list, q in [0, 1]."""
    s = sorted(values)
    if len(s) == 1:
        return s[0]
    pos = q * (len(s) - 1)
    lo = int(math.floor(pos))
    frac = pos - lo
    if lo + 1 >= len(s):
        return s[-1]
    return s[lo] * (1.0 - frac) + s[lo + 1] * frac


def oracle_hd95(a, b):
    if not a.any() or not b.any():
        return None
    return oracle_quantile(oracle_surface_distances(a, b), 0.95)


def oracle_hausdorff_max(a, b):
    return max(oracle_surface_distances(a, b))


def _indices(shape):
    for d in range(shape[0]):
        for h in range(shape[1]):
            for w in range(shape[2]):
                yield (d, h, w)


def _zeros(*shape):
    if len(shape) == 1:
        return [0.0] * shape[0]
    return [_zeros(*shape[1:]) for _ in range(shape[0])]


def oracle_conv3d(x, kernel, bias, g, stride, padding):
    """3D cross-correlation and its gradients by direct float64 summation.

    `x` is C×D×H×W, `kernel` O×C×kd×kh×kw, `bias` O and `g` the upstream
    gradient of the O×Do×Ho×Wo output; `stride` and `padding` are per-axis
    triples. Returns (out, grad_x, grad_kernel, grad_bias) as nested lists.
    """
    xs, ks, gs = x.tolist(), kernel.tolist(), g.tolist()
    cin, d, h, w = len(xs), len(xs[0]), len(xs[0][0]), len(xs[0][0][0])
    nout, kd, kh, kw = len(ks), len(ks[0][0]), len(ks[0][0][0]), len(ks[0][0][0][0])
    (sd, sh, sw), (pd, ph, pw) = stride, padding
    do = (d + 2 * pd - kd) // sd + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    out = [[[[float(bias[o])] * wo for _ in range(ho)] for _ in range(do)] for o in range(nout)]
    gx = _zeros(cin, d, h, w)
    gk = _zeros(nout, cin, kd, kh, kw)
    gb = [sum(v for plane in gs[o] for row in plane for v in row) for o in range(nout)]
    for o in range(nout):
        for c in range(cin):
            for i in range(kd):
                for j in range(kh):
                    for k in range(kw):
                        kv = ks[o][c][i][j][k]
                        acc = 0.0
                        for z in range(do):
                            zi = z * sd + i - pd
                            if not 0 <= zi < d:
                                continue
                            for y in range(ho):
                                yi = y * sh + j - ph
                                if not 0 <= yi < h:
                                    continue
                                for xo in range(wo):
                                    xi = xo * sw + k - pw
                                    if not 0 <= xi < w:
                                        continue
                                    xv = xs[c][zi][yi][xi]
                                    gv = gs[o][z][y][xo]
                                    out[o][z][y][xo] += kv * xv
                                    acc += gv * xv
                                    gx[c][zi][yi][xi] += kv * gv
                        gk[o][c][i][j][k] = acc
    return out, gx, gk, gb


def oracle_upsample_grad(g, factor):
    """Gradient of nearest upsampling by `factor` for an upstream gradient `g`.

    `g` is C×(f·D)×(f·H)×(f·W); every C×D×H×W entry is the float64 sum of
    its f³ copies. Returns nested lists.
    """
    gs, f = g.tolist(), factor
    c, d, h, w = len(gs), len(gs[0]) // f, len(gs[0][0]) // f, len(gs[0][0][0]) // f
    out = _zeros(c, d, h, w)
    for ch in range(c):
        for z, y, x in _indices((d, h, w)):
            acc = 0.0
            for i, j, k in _indices((f, f, f)):
                acc += gs[ch][z * f + i][y * f + j][x * f + k]
            out[ch][z][y][x] = acc
    return out


def oracle_max_pool3d(x, g, factor):
    """Non-overlapping max pooling of a C×D×H×W `x` and its gradient for an
    upstream gradient `g`, by loops over each f³ block in (dz, dy, dx) order.

    A later entry replaces the running maximum only if it is strictly greater,
    so the first entry equal to the maximum wins: the output takes its value
    (and so its sign, for ±0) and it alone takes the whole gradient. Returns
    (out, grad_x) as nested lists.
    """
    xs, gs, f = x.tolist(), g.tolist(), factor
    c, d, h, w = len(xs), len(xs[0]) // f, len(xs[0][0]) // f, len(xs[0][0][0]) // f
    out = _zeros(c, d, h, w)
    gx = _zeros(c, d * f, h * f, w * f)
    for ch in range(c):
        vol = xs[ch]
        for z, y, x0 in _indices((d, h, w)):
            best = None
            for i, j, k in _indices((f, f, f)):
                zi, yi, xi = z * f + i, y * f + j, x0 * f + k
                if best is None or vol[zi][yi][xi] > vol[best[0]][best[1]][best[2]]:
                    best = (zi, yi, xi)
            out[ch][z][y][x0] = vol[best[0]][best[1]][best[2]]
            gx[ch][best[0]][best[1]][best[2]] = gs[ch][z][y][x0]
    return out, gx


def oracle_grad_check(f, x, step):
    """The max relative error of a gradient check by full evaluation: `f(x)`
    recorded and differentiated once, then evaluated again under `no_grad`
    for each entry of `x` moved up, then down, by `step` in place.

    The error of an entry is |a − n| / max(|a|, |n|, 1) for analytic `a` and
    central difference `n`. Entries are restored, also when `f` raises.
    """
    x.zero_grad()
    needed_grad = x.requires_grad
    x.requires_grad = True
    try:
        f(x).backward()
    finally:
        x.requires_grad = needed_grad
    grad = x.grad
    x.zero_grad()
    flat = x.data.reshape(-1)
    worst = 0.0
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            try:
                flat[i] = orig + step
                up = f(x).item()
                flat[i] = orig - step
                down = f(x).item()
            finally:
                flat[i] = orig
            a = 0.0 if grad is None else float(grad.flat[i])
            n = (up - down) / (2.0 * step)
            worst = max(worst, abs(a - n) / max(abs(a), abs(n), 1.0))
    return worst
