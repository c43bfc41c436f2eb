"""Virtual memory systems: standard demand paging and the compression cache."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "compressed": ("CompressedVM",),
    "external": ("ExternalPagerVM",),
    "faults": ("FaultSource", "VmConfigurationError"),
    "standard": ("StandardVM",),
    "system": ("BaseVM",),
})
