"""Test-only reference for ``plant.simulate_segments``: the per-sample
state-space loop the episode kernel replaced, kept to check the lfilter
form against.
"""


def simulate_segments(x, v, seg_mats, seg_steps, w, vnoise, p_nom, threshold, out):
    """Same contract as ``sscirl.plant.simulate_segments``, one step at a
    time: s' = A s + b w, checked against the bound after every step."""
    thr2 = threshold * threshold
    out[0] = p_nom + x + vnoise[0]
    k = 1
    for s in range(len(seg_steps)):
        a11 = float(seg_mats[s, 0])
        a12 = float(seg_mats[s, 1])
        a21 = float(seg_mats[s, 2])
        a22 = float(seg_mats[s, 3])
        b1 = float(seg_mats[s, 4])
        b2 = float(seg_mats[s, 5])
        for _ in range(int(seg_steps[s])):
            wk = float(w[k - 1])
            xn = a11 * x + a12 * v + b1 * wk
            vn = a21 * x + a22 * v + b2 * wk
            x = xn
            v = vn
            if x * x + v * v > thr2:
                return k, x, v, True
            out[k] = p_nom + x + float(vnoise[k])
            k += 1
    return k, x, v, False
