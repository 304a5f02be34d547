"""The one output format: compact JSON, floats as their shortest repr.

``repr`` of a float is the shortest decimal text that parses back to the
same double, and the stdlib encoder uses it (``np.float64`` included, as a
float subclass). Non-finite floats print as Infinity, -Infinity and NaN.
The separators carry no spaces, so a number follows ``:``, ``,`` or ``[``
directly.
"""

import functools
import json

dumps = functools.partial(json.dumps, separators=(",", ":"))
