"""Analysis chain for precision vibrational spectroscopy of HD+.

Subpackages cover the effective spin Hamiltonian (angular), its
coefficients and their uncertainty model (coefficients), magnetic-field
maps (zeeman), Lorentzian line fitting (lineshape), systematic-shift
bookkeeping with the zero-field and zero-RF extrapolations
(systematics), weighted composite frequencies (composite),
fundamental-constant extraction (constants), frequency-chain metrology
(metrology) and the trapped-ion carrier-strength model (carrier).
"""

__version__ = "0.1.0"
