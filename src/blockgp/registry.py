"""Registry of functions callable by name on the workers.

Both collective programs (SPMD functions taking a worker context) and
block generators are looked up by string id, so the socket backend can
resolve them inside worker processes without shipping code.
"""

from .errors import UnknownFunction

_FUNCTIONS = {}


def register(fn_id, fn=None):
    """Register `fn` under `fn_id`; usable as a decorator."""
    if fn is None:
        def deco(f):
            _FUNCTIONS[fn_id] = f
            return f
        return deco
    _FUNCTIONS[fn_id] = fn
    return fn


def lookup(fn_id):
    try:
        return _FUNCTIONS[fn_id]
    except KeyError:
        raise UnknownFunction(f"no registered function {fn_id!r}") from None
