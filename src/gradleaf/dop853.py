"""Coefficients of DOP853, the Dormand-Prince 8(5,3) Runge-Kutta pair.

Sources: E. Hairer, S. P. Norsett and G. Wanner, *Solving Ordinary
Differential Equations I: Nonstiff Problems*, 2nd ed., Springer 1993,
Section II.5 (the embedded pair); and the coefficient block of Hairer's
Fortran code ``dop853.f``.  Each value is the double nearest to the
published decimal, written with the fewest digits that read back to that
double.

``A`` is the 13 x 13 tableau: rows 1-11 give the stages of a step, row 12
(``B``) its 8th-order solution, which is also where the last stage
``f(t + h, y_new)`` is taken.  ``E5`` and ``E3`` weight the 13 stages into
the 5th- and 3rd-order error estimates.  The three extra stages and the
interpolant of the method's dense output are left out: gradleaf reads a
trajectory at its step ends only.  Both of gradleaf's drivers integrate
autonomous systems, so the stage times ``c`` are left out too.
"""

import numpy as np

N_STAGES = 12
ERROR_ESTIMATOR_ORDER = 7

# row s holds A[s, :s]
_A_ROWS = [
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
    [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
]

A = np.zeros((N_STAGES + 1, N_STAGES + 1))
for _s, _row in enumerate(_A_ROWS, start=1):
    A[_s, :_s] = _row
B = A[N_STAGES, :N_STAGES]

E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0,
])

E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
])

