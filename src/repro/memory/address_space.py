"""System-wide virtual address space with per-page physical placement.

Fast interconnects integrate the GPU into a system-wide address space
(Section 5.3): physical CPU pages can be mapped adjacent to GPU pages,
which is what makes the hybrid hash table a *single contiguous array*
with zero software-indirection cost.  This module models exactly that —
a virtual range whose pages map to named memory regions — and is used by
the hybrid hash table to answer "which region serves byte offset X?"
in O(1) for the common two-segment layout and O(log n) in general.
:class:`RoundRobinAddressSpace` is the multi-GPU interleaved layout of
Section 6.3, answered in closed form until its page list is read.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class PageMapping:
    """A run of virtually-contiguous pages backed by one region."""

    start: int  # virtual byte offset (inclusive)
    end: int  # virtual byte offset (exclusive)
    region_name: str

    @property
    def nbytes(self) -> int:
        return self.end - self.start

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty or negative mapping: {self}")


class AddressSpace:
    """A virtual byte range composed of region-backed segments.

    Segments must be appended in order and be contiguous; this mirrors
    the greedy allocation of Figure 8 which fills GPU memory first and
    then appends CPU-memory pages.
    """

    def __init__(self) -> None:
        self._segments: List[PageMapping] = []
        self._starts: List[int] = []

    @property
    def size(self) -> int:
        if not self._segments:
            return 0
        return self._segments[-1].end

    @property
    def segments(self) -> Tuple[PageMapping, ...]:
        return tuple(self._segments)

    def append(self, nbytes: int, region_name: str) -> PageMapping:
        """Map the next ``nbytes`` of the virtual range to a region."""
        if nbytes <= 0:
            raise ValueError(f"segment size must be positive: {nbytes}")
        start = self.size
        mapping = PageMapping(start=start, end=start + nbytes, region_name=region_name)
        self._segments.append(mapping)
        self._starts.append(start)
        return mapping

    def region_of(self, offset: int) -> str:
        """Name of the region backing a virtual byte offset."""
        if offset < 0 or offset >= self.size:
            raise IndexError(f"offset {offset} outside address space of {self.size}")
        index = bisect.bisect_right(self._starts, offset) - 1
        return self._segments[index].region_name

    def bytes_per_region(self) -> Dict[str, int]:
        """Total mapped bytes per region (for access-fraction estimates)."""
        totals: Dict[str, int] = {}
        for segment in self._segments:
            totals[segment.region_name] = (
                totals.get(segment.region_name, 0) + segment.nbytes
            )
        return totals

    def region_fraction(self, region_name: str) -> float:
        """Fraction of the space backed by ``region_name``.

        For a uniform access distribution this equals the access fraction
        A_region of Section 5.3's throughput model.
        """
        if self.size == 0:
            return 0.0
        return self.bytes_per_region().get(region_name, 0) / self.size


class RoundRobinAddressSpace(AddressSpace):
    """``nbytes`` dealt round-robin over ``region_names`` in pages of
    ``page_bytes`` (the last page may be partial).

    Size, region lookups and per-region totals are answered from the
    layout in closed form.  The page list is built the first time
    ``segments`` or ``append`` needs it, and from then on the space
    answers as the plain :class:`AddressSpace` holding those pages.
    """

    def __init__(
        self, nbytes: int, page_bytes: int, region_names: Sequence[str]
    ) -> None:
        super().__init__()
        self._layout: Optional[Tuple[int, int, Tuple[str, ...]]] = (
            nbytes, page_bytes, tuple(region_names),
        )

    def _build_pages(self) -> None:
        if self._layout is None:
            return
        nbytes, page_bytes, names = self._layout
        self._layout = None
        for page, start in enumerate(range(0, nbytes, page_bytes)):
            super().append(
                min(page_bytes, nbytes - start), names[page % len(names)]
            )

    @property
    def size(self) -> int:
        if self._layout is None:
            return super().size
        return self._layout[0]

    @property
    def segments(self) -> Tuple[PageMapping, ...]:
        self._build_pages()
        return super().segments

    def append(self, nbytes: int, region_name: str) -> PageMapping:
        self._build_pages()
        return super().append(nbytes, region_name)

    def region_of(self, offset: int) -> str:
        if self._layout is None:
            return super().region_of(offset)
        nbytes, page_bytes, names = self._layout
        if offset < 0 or offset >= nbytes:
            raise IndexError(f"offset {offset} outside address space of {nbytes}")
        return names[(offset // page_bytes) % len(names)]

    def bytes_per_region(self) -> Dict[str, int]:
        """Bytes per region: position ``i`` of ``region_names`` is dealt
        pages ``i, i + count, ...``, and the partial last page is short
        by ``page_bytes - nbytes % page_bytes``.  A region dealt no page
        is absent, as from the page list."""
        if self._layout is None:
            return super().bytes_per_region()
        nbytes, page_bytes, names = self._layout
        count = len(names)
        pages, last_page = divmod(nbytes, page_bytes)
        if last_page:
            pages += 1
        totals: Dict[str, int] = {}
        for i, name in enumerate(names[:pages]):
            share = (pages // count + (i < pages % count)) * page_bytes
            if last_page and (pages - 1) % count == i:
                share -= page_bytes - last_page
            totals[name] = totals.get(name, 0) + share
        return totals
