"""External pagers: the Mach-style restructuring the paper suggests."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "compression": ("CompressionPager",),
    "default": ("DefaultPager",),
    "interface": ("MemoryObjectPager", "PagerError"),
})
