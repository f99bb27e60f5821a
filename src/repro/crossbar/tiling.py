"""Tiled crossbar: maps matrices larger than one physical tile.

Realistic crossbar tiles are bounded (e.g. 128x128).  A large weight matrix
is partitioned along both dimensions; partial sums from row-tiles are
accumulated digitally.  Each tile performs its own noisy analog read, so the
accumulated output of a matrix split across ``T`` row-tiles carries ``T``
independent Gaussian noise contributions, which :meth:`TiledCrossbar.read_noise_std`
adds in quadrature.  The paper's single-tile model is the ``T = 1`` case.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.tensor.dtype import resolve_dtype

from repro.crossbar.array import CrossbarArray, CrossbarConfig
from repro.tensor.random import RandomState, default_rng


class TiledCrossbar:
    """A logical crossbar composed of physical tiles of bounded size."""

    def __init__(
        self,
        binary_weights: np.ndarray,
        config: Optional[CrossbarConfig] = None,
        rng: Optional[RandomState] = None,
    ):
        self.config = config or CrossbarConfig()
        self._rng = rng or default_rng()
        weights = np.asarray(binary_weights, dtype=resolve_dtype())
        if weights.ndim != 2:
            raise ValueError(f"crossbar weights must be 2-D, got shape {weights.shape}")
        self.out_features, self.in_features = weights.shape
        self._row_splits = self._split_points(self.in_features, self.config.max_rows)
        self._col_splits = self._split_points(self.out_features, self.config.max_cols)
        self._tiles: List[List[CrossbarArray]] = []
        for col_start, col_end in self._col_splits:
            row_of_tiles = []
            for row_start, row_end in self._row_splits:
                tile_weights = weights[col_start:col_end, row_start:row_end]
                row_of_tiles.append(CrossbarArray(tile_weights, config=self.config, rng=self._rng))
            self._tiles.append(row_of_tiles)
        self._assembled: Optional[np.ndarray] = None

    @staticmethod
    def _split_points(total: int, chunk: int) -> List[Tuple[int, int]]:
        if chunk <= 0:
            raise ValueError(f"tile size must be positive, got {chunk}")
        return [(start, min(start + chunk, total)) for start in range(0, total, chunk)]

    @property
    def num_tiles(self) -> int:
        """Total number of physical tiles used."""
        return len(self._row_splits) * len(self._col_splits)

    @property
    def tile_grid(self) -> Tuple[int, int]:
        """Grid of tiles as ``(col_tiles, row_tiles)``."""
        return (len(self._col_splits), len(self._row_splits))

    @property
    def rng(self) -> RandomState:
        """Random state shared by all tiles for noise sampling."""
        return self._rng

    @property
    def assembled_effective_weights(self) -> np.ndarray:
        """Weights of all tiles assembled into one matrix.

        Lets an engine compute the ideal part of a full logical read as a
        single matmul; computed lazily and cached (tiles are immutable).
        """
        if self._assembled is None:
            full = np.zeros((self.out_features, self.in_features), dtype=resolve_dtype())
            for col_index, (col_start, col_end) in enumerate(self._col_splits):
                for row_index, (row_start, row_end) in enumerate(self._row_splits):
                    full[col_start:col_end, row_start:row_end] = self._tiles[col_index][
                        row_index
                    ].effective_weights
            self._assembled = full
        return self._assembled

    def read_batch(
        self,
        inputs: np.ndarray,
        add_noise: bool = True,
        rng: Optional[RandomState] = None,
    ) -> np.ndarray:
        """Batched noisy MVM across all tiles with digital partial sums.

        Accepts any number of leading batch dimensions — in particular a
        whole pulse train ``(num_pulses, batch, in_features)`` — and performs
        exactly one :meth:`CrossbarArray.read_batch` call per physical tile.
        """
        inputs = np.asarray(inputs, dtype=resolve_dtype())
        if inputs.shape[-1] != self.in_features:
            raise ValueError(
                f"input feature dimension {inputs.shape[-1]} does not match "
                f"crossbar rows {self.in_features}"
            )
        batch_shape = inputs.shape[:-1]
        output = np.zeros(batch_shape + (self.out_features,), dtype=resolve_dtype())
        for col_index, (col_start, col_end) in enumerate(self._col_splits):
            accumulator = np.zeros(batch_shape + (col_end - col_start,), dtype=resolve_dtype())
            for row_index, (row_start, row_end) in enumerate(self._row_splits):
                tile = self._tiles[col_index][row_index]
                accumulator += tile.read_batch(
                    inputs[..., row_start:row_end], add_noise=add_noise, rng=rng
                )
            output[..., col_start:col_end] = accumulator
        return output

    def read_noise_std(self) -> float:
        """Effective additive noise std of one full logical read.

        Partial sums from independent row-tiles add in quadrature.
        """
        per_tile = [
            self._tiles[0][row_index].read_noise_std() ** 2
            for row_index in range(len(self._row_splits))
        ]
        return float(np.sqrt(sum(per_tile)))

    def __repr__(self) -> str:
        return (
            f"TiledCrossbar(out_features={self.out_features}, in_features={self.in_features}, "
            f"tile_grid={self.tile_grid})"
        )
