"""Output checks that do not depend on the code under test.

Certificates are checked from their JSON text with exact rational arithmetic
and against the floating-point point oracle of ``critlat.moduli`` (the same
oracle the acceptance tests sample); nothing here calls the verifier,
enclosure, batch or interval code.  The ``check_*`` functions return their
failures, empty when the output passes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np

CERTIFIED = ("CertifiedInterior", "CertifiedMonotoneLow", "CertifiedMonotoneHigh")
# float-oracle slack for point comparisons, as in the acceptance tests
SLACK = 1e-12
_ID = re.compile(r"^(c\d+)([01]*)$")


def _frac_box(p, s):
    return (Fraction(float(p[0])), Fraction(float(p[1])),
            Fraction(float(s[0])), Fraction(float(s[1])))


def _merge(a, b):
    """Parent box of the bisection children a ('0') and b ('1'), or None."""
    if a[0:2] == b[0:2] and a[3] == b[2]:
        return (a[0], a[1], a[2], b[3])
    if a[2:4] == b[2:4] and a[1] == b[0]:
        return (a[0], b[1], a[2], a[3])
    return None


def check_tiling(doc: dict) -> list[str]:
    """The leaves tile the certificate region exactly.

    Sibling leaves (bisection-path ids ending in 0 and 1) must be the two
    halves of their parent; merging them bottom-up must reach the initial
    cells, which must lie in the region, be interior-disjoint and have exact
    rational areas summing to the region's area.
    """
    boxes: dict[str, tuple] = {}
    for leaf in doc["leaves"]:
        if not _ID.match(leaf["id"]):
            return [f"leaf id {leaf['id']!r} is not a bisection path"]
        box = _frac_box(leaf["p"], leaf["sigma"])
        if not (box[0] < box[1] and box[2] < box[3]):
            return [f"leaf {leaf['id']} is degenerate"]
        if leaf["id"] in boxes:
            return [f"leaf {leaf['id']} appears twice"]
        boxes[leaf["id"]] = box
    while True:
        deep = [k for k in boxes if _ID.match(k).group(2)]
        if not deep:
            break
        k = max(deep, key=len)
        parent, tag = k[:-1], k[-1]
        sibling = parent + ("1" if tag == "0" else "0")
        if sibling not in boxes:
            return [f"leaf {k} has no sibling {sibling}: gap in the tiling"]
        if parent in boxes:
            return [f"cell {parent} overlaps its own children"]
        a, b = (boxes[k], boxes[sibling]) if tag == "0" else (boxes[sibling], boxes[k])
        merged = _merge(a, b)
        if merged is None:
            return [f"{parent}0 and {parent}1 do not bisect a cell"]
        del boxes[k], boxes[sibling]
        boxes[parent] = merged
    region = _frac_box(doc["region"]["p"], doc["region"]["sigma"])
    roots = list(boxes.items())
    for k, b in roots:
        if not (region[0] <= b[0] and b[1] <= region[1] and region[2] <= b[2] and b[3] <= region[3]):
            return [f"cell {k} leaves the region"]
    for i, (ka, a) in enumerate(roots):
        for kb, b in roots[i + 1:]:
            if min(a[1], b[1]) > max(a[0], b[0]) and min(a[3], b[3]) > max(a[2], b[2]):
                return [f"cells {ka} and {kb} overlap"]
    area = sum((b[1] - b[0]) * (b[3] - b[2]) for _, b in roots)
    if area != (region[1] - region[0]) * (region[3] - region[2]):
        return [f"cells cover {float(area)!r} of the region area "
                f"{float((region[1] - region[0]) * (region[3] - region[2]))!r}"]
    return []


def _edge_low(M, p):
    tp = M.tau_p_vec(p)
    return 4.0 ** (-1.0 / p) * (1.0 + tp) / (1.0 - tp)


def _sigma_p(p):
    return (2.0**p - 1.0) ** (1.0 / p)


def check_leaf_samples(doc: dict, M, rng, n: int = 256) -> list[str]:
    """Seeded float samples of each certified leaf satisfy its claim.

    Claims: MonotoneLow and the delta_minus_edge_low witness give
    Delta > Delta(p, 1); MonotoneHigh and delta_minus_edge_high give
    Delta > sigma_p/2; delta_minus_bound gives Delta > the smaller of them.
    """
    fails = []
    for leaf in doc["leaves"]:
        ps = rng.uniform(float(leaf["p"][0]), float(leaf["p"][1]), n)
        ss = rng.uniform(float(leaf["sigma"][0]), float(leaf["sigma"][1]), n)
        sp = _sigma_p(ps)
        inside = ss < sp * (1.0 - 1e-12)
        if not inside.any():
            continue
        ps, ss, sp = ps[inside], ss[inside], sp[inside]
        verdict = leaf["verdict"]
        fid = (leaf.get("witness") or {}).get("fid")
        if verdict == "CertifiedMonotoneLow" or fid == "delta_minus_edge_low":
            bound = _edge_low(M, ps)
        elif verdict == "CertifiedMonotoneHigh" or fid == "delta_minus_edge_high":
            bound = sp / 2.0
        else:
            bound = np.minimum(_edge_low(M, ps), sp / 2.0)
        deltas = M.delta_point_vec(ps, ss)
        bad = int(np.count_nonzero(~(deltas > bound - SLACK)))
        if bad:
            fails.append(f"leaf {leaf['id']} ({verdict}): {bad} samples violate its claim")
    return fails


def check_certificate(code: int, text: str, M, rng) -> list[str]:
    """A strip run: exit 0, a complete certificate with no Undecided leaf,
    an exact tiling of the region and sampled leaf claims that hold."""
    if code != 0:
        return [f"verify exited with {code}" + (f": {text}" if code == -1 else "")]
    try:
        doc = json.loads(text)
    except ValueError as e:
        return [f"certificate is not JSON: {e}"]
    if doc.get("format") != "critlat-certificate":
        return ["not a certificate document"]
    counts: dict[str, int] = {}
    for leaf in doc["leaves"]:
        counts[leaf["verdict"]] = counts.get(leaf["verdict"], 0) + 1
    fails = []
    if doc.get("complete") is not True:
        fails.append("certificate is not complete")
    if any(v not in CERTIFIED for v in counts):
        fails.append(f"uncertified verdicts {sorted(set(counts) - set(CERTIFIED))}")
    if counts != doc.get("totals"):
        fails.append(f"totals {doc.get('totals')} disagree with the leaves {counts}")
    fails += check_tiling(doc)
    fails += check_leaf_samples(doc, M, rng)
    return fails


def check_p0(iv: tuple[float, float], M) -> list[str]:
    """Width <= 1e-6, inside [2.57, 2.58], and containing the float root of
    Delta(p, 1) - Delta(p, sigma_p) bisected with the point oracle."""
    lo, hi = iv
    fails = []
    if not hi - lo <= 1e-6:
        fails.append(f"p0 enclosure width {hi - lo!r} exceeds 1e-6")
    if not 2.57 <= lo <= hi <= 2.58:
        fails.append(f"p0 enclosure [{lo!r}, {hi!r}] not inside [2.57, 2.58]")
    g = lambda p: M.delta_edge_low(p) - M.delta_edge_high(p)
    a, b = 2.5, 2.65
    for _ in range(60):
        mid = 0.5 * (a + b)
        if g(a) * g(mid) <= 0.0:
            b = mid
        else:
            a = mid
    root = 0.5 * (a + b)
    if not lo <= root <= hi:
        fails.append(f"float root {root!r} outside the p0 enclosure")
    return fails


def check_boxes(boxes: np.ndarray, encl: np.ndarray, M, rng, n: int = 32) -> np.ndarray:
    """Indices of boxes whose enclosures miss the point oracle at a sampled
    point.

    boxes: (k, 4) of p_lo, p_hi, s_lo, s_hi.  encl: (k, 8) of the tau,
    Delta, Delta(p, 1) and Delta(p, sigma_p) enclosures as lo, hi pairs;
    a NaN row (an enclosure that failed) misses every point.
    """
    k = len(boxes)
    u = rng.uniform(size=(2, k, n))
    ps = boxes[:, :1] + u[0] * (boxes[:, 1:2] - boxes[:, :1])
    ss = boxes[:, 2:3] + u[1] * (boxes[:, 3:4] - boxes[:, 2:3])
    taus = M.tau_point_vec(ps, ss)
    deltas = (taus + ss) * (1.0 + ss**ps) ** (-1.0 / ps) * (1.0 + taus**ps) ** (-1.0 / ps)
    values = (taus, deltas, _edge_low(M, ps), _sigma_p(ps) / 2.0)
    ok = np.ones(k, dtype=bool)
    for j, v in enumerate(values):
        lo = encl[:, 2 * j: 2 * j + 1]
        hi = encl[:, 2 * j + 1: 2 * j + 2]
        ok &= np.all((lo - SLACK <= v) & (v <= hi + SLACK), axis=1)
    return np.flatnonzero(~ok)
