"""Axis-aligned bounding boxes in d dimensions.

Local inference (Section 5.1) builds a bounding box around the Monte-Carlo
input samples, retrieves training points within a distance threshold of that
box (the paper uses an R-tree; the engine scans), and uses nearest / furthest
box points to bound the kernel weight of excluded training points.  This
module provides the box geometry those steps need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.exceptions import IndexError_


@dataclass(frozen=True, eq=False)
class BoundingBox:
    """Axis-aligned box ``[low_i, high_i]`` per dimension."""

    low: np.ndarray
    high: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoundingBox):
            return NotImplemented
        return bool(np.array_equal(self.low, other.low) and np.array_equal(self.high, other.high))

    def __hash__(self) -> int:
        return hash((self.low.tobytes(), self.high.tobytes()))

    def __post_init__(self) -> None:
        low = np.atleast_1d(np.asarray(self.low, dtype=float))
        high = np.atleast_1d(np.asarray(self.high, dtype=float))
        if low.shape != high.shape or low.ndim != 1:
            raise IndexError_(
                f"bounding box corners must be 1-D and equal length, got {low.shape} and {high.shape}"
            )
        if np.any(high < low):
            raise IndexError_("bounding box high corner must dominate the low corner")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def from_points(points: np.ndarray) -> "BoundingBox":
        """Smallest box containing every row of ``points`` (shape ``(m, d)``)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise IndexError_("cannot build a bounding box from zero points")
        return BoundingBox(pts.min(axis=0), pts.max(axis=0))

    @staticmethod
    def from_point(point: np.ndarray) -> "BoundingBox":
        """Degenerate box containing a single point."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        return BoundingBox(p.copy(), p.copy())

    # -- geometry ---------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Number of spatial dimensions."""
        return self.low.size

    @property
    def center(self) -> np.ndarray:
        """Geometric centre of the box."""
        return (self.low + self.high) / 2.0

    @property
    def lengths(self) -> np.ndarray:
        """Edge length per dimension."""
        return self.high - self.low

    def volume(self) -> float:
        """Product of edge lengths (0 for degenerate boxes)."""
        return float(np.prod(self.lengths))

    def margin(self) -> float:
        """Sum of edge lengths; the R-tree split heuristic minimises this."""
        return float(np.sum(self.lengths))

    def contains_point(self, point: np.ndarray) -> bool:
        """Whether ``point`` lies inside (or on the boundary of) the box."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        return bool(np.all(p >= self.low) and np.all(p <= self.high))

    def contains_box(self, other: "BoundingBox") -> bool:
        """Whether ``other`` is fully inside this box."""
        return bool(np.all(other.low >= self.low) and np.all(other.high <= self.high))

    def intersects(self, other: "BoundingBox") -> bool:
        """Whether the two boxes overlap (boundaries touching counts)."""
        return bool(np.all(self.low <= other.high) and np.all(other.low <= self.high))

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest box containing both boxes."""
        return BoundingBox(np.minimum(self.low, other.low), np.maximum(self.high, other.high))

    def expand(self, amount: float | np.ndarray) -> "BoundingBox":
        """Box grown by ``amount`` on every side (per-dimension if an array)."""
        amount_arr = np.broadcast_to(np.asarray(amount, dtype=float), self.low.shape)
        if np.any(amount_arr < 0):
            raise IndexError_("expansion amount must be non-negative")
        return BoundingBox(self.low - amount_arr, self.high + amount_arr)

    def enlargement(self, other: "BoundingBox") -> float:
        """Volume increase needed to absorb ``other`` (R-tree insert heuristic)."""
        return self.union(other).volume() - self.volume()

    # -- distances used by local inference ---------------------------------------
    def nearest_point_to(self, point: np.ndarray) -> np.ndarray:
        """Point of the box closest to ``point`` (``x_near`` in Fig. 3)."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        return np.clip(p, self.low, self.high)

    def farthest_point_to(self, point: np.ndarray) -> np.ndarray:
        """Corner of the box farthest from ``point`` (``x_far`` in Fig. 3)."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        choose_high = np.abs(self.high - p) >= np.abs(p - self.low)
        return np.where(choose_high, self.high, self.low)

    def min_distance_to(self, point: np.ndarray) -> float:
        """Euclidean distance from ``point`` to the box (0 if inside)."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        return float(np.linalg.norm(p - self.nearest_point_to(p)))

    def max_distance_to(self, point: np.ndarray) -> float:
        """Euclidean distance from ``point`` to its farthest box corner."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        return float(np.linalg.norm(p - self.farthest_point_to(p)))

    def min_distance_to_box(self, other: "BoundingBox") -> float:
        """Smallest Euclidean distance between any two points of the boxes.

        The norm is a plain sum of squares (not BLAS ``dot``, whose SIMD
        summation order differs in the last ulp), so the R-tree's distance
        test agrees bit for bit with the vectorised scan local inference
        runs (:func:`repro.core.local_inference._distances_to_boxes`).
        """
        gaps = np.maximum(0.0, np.maximum(other.low - self.high, self.low - other.high))
        return float(np.sqrt(np.add.reduce(gaps * gaps)))

    def subdivide(self, parts_per_dim: int) -> list["BoundingBox"]:
        """Split the box into a regular grid of ``parts_per_dim**d`` sub-boxes.

        This is the tightening trick in Section 5.1: computing the kernel
        weight bound per sub-box and taking the max yields a tighter bound
        than using the whole sample box at once.
        """
        if parts_per_dim <= 0:
            raise IndexError_("parts_per_dim must be positive")
        if parts_per_dim == 1:
            return [self]
        edges = [
            np.linspace(self.low[i], self.high[i], parts_per_dim + 1)
            for i in range(self.dimension)
        ]
        boxes: list[BoundingBox] = []
        index = np.zeros(self.dimension, dtype=int)
        total = parts_per_dim**self.dimension
        for flat in range(total):
            rem = flat
            for i in range(self.dimension):
                index[i] = rem % parts_per_dim
                rem //= parts_per_dim
            low = np.array([edges[i][index[i]] for i in range(self.dimension)])
            high = np.array([edges[i][index[i] + 1] for i in range(self.dimension)])
            boxes.append(BoundingBox(low, high))
        return boxes


def union_of_boxes(boxes: Iterable[BoundingBox]) -> BoundingBox:
    """Smallest box containing all boxes in ``boxes`` (must be non-empty)."""
    boxes = list(boxes)
    if not boxes:
        raise IndexError_("union_of_boxes requires at least one box")
    result = boxes[0]
    for box in boxes[1:]:
        result = result.union(box)
    return result
