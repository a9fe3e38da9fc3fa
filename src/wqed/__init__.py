"""Exact single-photon dynamics of qubit chains coupled to a 1-D waveguide.

Closed-form non-Markovian time evolution: a dynamic program over the
scattering histories sums each qubit's paths into integer polynomials, whose
residues at the two poles -iJ0 and -i*sigma are written in closed form; the
field follows from the qubit amplitudes. The answers are cross-validated by a
per-path reference walk, an independent delay-differential-equation
integrator and the two-qubit series.
"""

from .core import (ChainConfig, DelayedTerm, InitialCondition, PulseSpec,
                   TimeSeriesAmplitude, eval_series, eval_term)
from .diagrams import (Diagram, FinisherSpec, enumerate_diagrams,
                       finish_excitation)
from .errors import (GeometryError, HorizonTooLarge, IllConditioned,
                     NonConvergence, OutOfRange, RealAxisPole, StepTooLarge,
                     WqedError)
from .evaluator import (FieldProfile, causality_probe, excitation_amplitude,
                        field_profile, total_norm)
from .fermi import (CollectiveRates, collective_rates, fermi_e1, fermi_em1,
                    fermi_full_state, markovian_e1)
from .momentum import (RationalFn, coeff_e, coeff_r, coeff_t,
                       inverse_transform, mul, partial_fractions,
                       pulse_spectrum)
from .oracle import (DDEHistory, convergence_study, integrate_chain,
                     reconstruct_field, single_qubit_alpha)
from .scattering import FabryPerot, check_no_uhp, find_poles

__version__ = "0.1.0"
