"""Check measured defect blocks against their exact closed form.

For the quadratic benchmark Hamiltonian the defect is not just an
order-of-magnitude statement: both nonzero blocks have closed-form
expressions in integer powers of the constant coupling matrix C,

    diagonal block   = 2 (-1)^M h^{M+1} skew(C^M)
    antidiagonal     = I + (-1)^M h^{M+1} C^{M+1}

computed here in exact int64 arithmetic and compared against the blocks
measured from the differentiated flow map.  The bands of C^M also obey
a wrap identity, -2 band(l) = band(l - N), printed at the end.

Run:  python3 demos/04_closed_form_oracle.py
"""

import numpy as np

from sympdefect import (
    PhaseState,
    Scheme,
    SchemeConfig,
    analyze,
    coupling_power,
    predicted_defect_blocks,
    quadratic_model,
)

print(f"{'N':>3} {'M':>3} {'h':>6} {'diag rel err':>14} {'antidiag rel err':>17}")
for n in (2, 3, 5):
    model = quadratic_model(n)
    state = PhaseState(np.zeros(n), np.zeros(n))
    for m in (1, 2, 3):
        h = 0.05
        report = analyze(model, SchemeConfig(Scheme.P_IMPLICIT, h, M=m), state)
        diag_pred, anti_pred = predicted_defect_blocks(n, m, h)
        diag_scale = np.linalg.norm(diag_pred)
        if diag_scale == 0.0:
            # N=2 with even M predicts an exactly zero block
            diag = np.linalg.norm(report.diag_q)
            note = " (zero block, abs err)"
        else:
            diag = np.linalg.norm(report.diag_q - diag_pred) / diag_scale
            note = ""
        anti = np.linalg.norm(report.antidiag - anti_pred) / np.linalg.norm(anti_pred)
        print(f"{n:>3} {m:>3} {h:>6.2f} {diag:>14.3e} {anti:>17.3e}{note}")

print()
c3 = coupling_power(5, 3)
# band l (row minus column) is c3[l, 0] below the diagonal, c3[0, -l] above
bands = {l: int(c3[l, 0] if l >= 0 else c3[0, -l]) for l in range(-4, 5)}
print("bands of C^3 for N=5 (offset: value, positive below the diagonal):")
print("  ", bands)
for l in range(1, 5):
    print(f"  wrap identity at l={l}: -2*{bands[l]} == {bands[l - 5]}")
