"""Gauss-Kronrod constants and the small numeric kernels.

The panel reduction is two einsum contractions that reduce each panel by
itself; the compensated sum is a plain loop.
"""

import numpy as np

# --- Gauss-Kronrod 7/15 nodes and weights on [-1, 1] ------------------------
# Standard QUADPACK constants: 15 Kronrod nodes, the 7 even-indexed ones are
# the Gauss nodes.

GK_NODES = np.array(
    [
        -0.991455371120812639206854697526329,
        -0.949107912342758524526189684047851,
        -0.864864423359769072789712788640926,
        -0.741531185599394439863864773280788,
        -0.586087235467691130294144838258730,
        -0.405845151377397166906606412076961,
        -0.207784955007898467600689403773245,
        0.0,
        0.207784955007898467600689403773245,
        0.405845151377397166906606412076961,
        0.586087235467691130294144838258730,
        0.741531185599394439863864773280788,
        0.864864423359769072789712788640926,
        0.949107912342758524526189684047851,
        0.991455371120812639206854697526329,
    ]
)

GK_WEIGHTS_K = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
        0.204432940075298892414161999234649,
        0.190350578064785409913256402421014,
        0.169004726639267902826583426598550,
        0.140653259715525918745189590510238,
        0.104790010322250183839876322541518,
        0.063092092629978553290700663189204,
        0.022935322010529224963732008058970,
    ]
)

# Gauss-7 weights spread onto the 15-point layout (zeros at Kronrod-only
# nodes) so a single f-evaluation array serves both rules.
GK_WEIGHTS_G = np.zeros(15)
GK_WEIGHTS_G[1::2] = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
        0.381830050505118944950369775488975,
        0.279705391489276667901467771423780,
        0.129484966168869693270611432679082,
    ]
)


_GK_WEIGHTS = np.stack([GK_WEIGHTS_K, GK_WEIGHTS_G])


def panel_reduce(fvals, ferrs, half_widths):
    """Per-panel Kronrod value, |K15 - G7| error and Kronrod-weighted fold
    of the integrand's per-point errors, from the (n_panels, 15) arrays of f
    and its errors at the nodes and the (n_panels,) half-widths.

    einsum sums each row of C-ordered arrays in an order that depends on
    neither its position nor the number of rows (a matrix-vector product's
    may), so a panel gives the same three numbers, bit for bit, in any batch.
    """
    k, g = np.einsum("ij,kj->ki", fvals, _GK_WEIGHTS)
    return (k * half_widths, np.abs(k - g) * half_widths,
            np.einsum("ij,j->i", ferrs, GK_WEIGHTS_K) * half_widths)


def kahan_sum(values):
    """Compensated summation (Kahan-Babuska/Neumaier variant).

    Unlike plain Kahan, the compensation survives terms much larger than
    the running total, so cancellation-heavy inputs still sum exactly.
    """
    total = 0.0
    comp = 0.0
    for i in range(values.shape[0]):
        v = values[i]
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp
