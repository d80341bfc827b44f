"""Secret sharing over group presentations and the word problem.

Participants hold private small cancellation presentations as long-term
secrets; share bits travel on open channels as group words that decode by
Dehn's algorithm.  An XOR scheme requires all participants to recover the
secret; a hybrid scheme layers the word encoding under polynomial
threshold sharing so any t of n suffice.  A masked-ring simulator lets
participants combine shares without revealing them.

The package republishes each module's ``__all__``, which is the one list
of its public names.
"""

from .freegroup import *
from .scheme import *
from .securesum import *
from .shamir import *
from .smallcancel import *
from .tietze import *

__version__ = "0.1.0"
