"""Physical constants in SI units, CODATA 2018: the one source for every
module, so results do not depend on which library versions are installed."""

C0 = 299_792_458.0  # speed of light in vacuum, m/s (exact)
E_CHARGE = 1.602_176_634e-19  # elementary charge, C (exact)
HBAR = 1.054_571_817e-34  # reduced Planck constant, J*s
EPS0 = 8.854_187_8128e-12  # vacuum permittivity, F/m
