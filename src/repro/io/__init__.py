"""External CSI dataset adapters.

The paper's methodology is heavily trace-based: CSI/ToF traces are
collected once and replayed through emulators (Sections 4.3, 6.2).  This
package provides the same workflow for real captures:

* :mod:`repro.io.csitool` — reader/writer for the Linux 802.11n CSI Tool
  binary log format (Intel 5300), so the classifier can run on public CSI
  datasets collected with that tool;
* :mod:`repro.io.stream` — replays such a capture through the streaming
  router.
"""

from repro.io.csitool import CsiRecord, read_csitool_log, write_csitool_log

__all__ = [
    "CsiRecord",
    "read_csitool_log",
    "write_csitool_log",
]
