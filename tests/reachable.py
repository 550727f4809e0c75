"""Which objects a test subject keeps alive."""

import gc
import types


def reachable(root, cls=object):
    """The instances of *cls* reachable from *root* through
    :func:`gc.get_referents` (types and modules are not followed)."""
    seen, todo, found = {id(root)}, [root], []
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if id(ref) in seen or isinstance(ref, (type, types.ModuleType)):
                continue
            seen.add(id(ref))
            todo.append(ref)
            if isinstance(ref, cls):
                found.append(ref)
    return found
