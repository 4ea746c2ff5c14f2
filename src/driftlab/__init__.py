"""driftlab: simulate and classify state/time-dependent random walks.

The walk takes positive up-jumps at rate 1/2 + phi(x, t) and negative
down-jumps at rate 1/2 - phi(x, t), both with i.i.d. mean-1 marks.  The
package simulates such walks exactly, checks them against their
compensators, classifies their long-run behaviour (recurrent vs
transient) from the drift field or from a discretized birth-death
chain, and runs Monte Carlo recurrence/occupancy experiments.
"""

__version__ = "0.5.0"  # draw contract 5 (see simulator and seeding)

import os
import sys

# driftlab makes no BLAS call, yet OpenBLAS starts a worker thread when
# numpy loads, which spins for 60-90 ms of CPU and, when the other core is
# busy, adds 50-75 ms to the import (2 cores, numpy 2.4).  A value the
# caller set, or a numpy it already imported, is left as it is.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import classifier, experiments, fields, simulator
from .classifier import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .fields import *  # noqa: F401,F403
from .seeding import path_seed
from .simulator import *  # noqa: F401,F403

# each module's __all__ is the one list of its public names
__all__ = ["__version__", "path_seed", *classifier.__all__, *experiments.__all__,
           *fields.__all__, *simulator.__all__]
