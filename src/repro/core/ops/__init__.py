"""Relational operators besides the join: selection and aggregation."""

from repro.core.ops.q6 import TpchQ6
from repro.core.ops.scan import ScanResult, SelectionScan
from repro.core.ops.selection import selection_line_fractions

__all__ = ["ScanResult", "SelectionScan", "TpchQ6", "selection_line_fractions"]
