"""RTC memo statistics.

The Section 3.4 solvers lean on three layers of memoisation:

* the ``lru_cache``\\ d curve operators in :mod:`repro.rtc.minplus`
  (min-plus/max-plus convolution and deconvolution);
* the ``lru_cache``\\ d PJD curve constructors in :mod:`repro.rtc.pjd`;
* the full-sizing cache in :mod:`repro.rtc.sizing`.

:func:`rtc_cache_stats` snapshots every layer's ``cache_info()``
hit/miss/size numbers.  They are process-lifetime counts, so they stay
out of run reports (a report depends only on its run); process-level
tools such as perfbench read them directly.
"""

from __future__ import annotations

from typing import Dict


def _rtc_caches() -> Dict[str, object]:
    """The memoised callables, keyed by a short layer name.

    Imported lazily so ``repro.obs`` stays importable without pulling the
    whole RTC stack in at module load.
    """
    from repro.rtc import minplus, pjd, sizing

    return {
        "minplus_conv": minplus._min_plus_convolution_cached,
        "minplus_deconv": minplus._min_plus_deconvolution_cached,
        "maxplus_conv": minplus._max_plus_convolution_cached,
        "pjd_upper": pjd._upper_curve,
        "pjd_lower": pjd._lower_curve,
        "sizing": sizing._size_duplicated_network_cached,
    }


def rtc_cache_stats() -> Dict[str, Dict[str, int]]:
    """Plain-data ``cache_info()`` snapshot of every RTC memo layer."""
    stats: Dict[str, Dict[str, int]] = {}
    for name, func in _rtc_caches().items():
        info = func.cache_info()
        stats[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "currsize": info.currsize,
        }
    return stats
