"""The paper's benchmark applications, reimplemented as reference streams."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "base": ("Workload",),
    "compare": ("CompareWorkload",),
    "diurnal": ("DiurnalWorkload",),
    "gold": ("GoldWorkload",),
    "isca": ("CacheSimWorkload",),
    "multiprogram": ("MultiProgramWorkload",),
    "relaunch": ("AppRelaunchWorkload",),
    "sortw": ("SortWorkload",),
    "synthetic": ("SyntheticWorkload",),
    "thrasher": ("Thrasher",),
})
