"""Raster rendering of Q functions: equirectangular maps, axis views, ring foliations.

Every image is an 8-bit RGB array: a cached plan maps its pixels to the nodes
of a table of Q values, and `_draw` paints the samples from one palette.  The
rasters are written, as binary portable pixmaps (P6), by `pipeline.write_ppm`.
The colormap is a fixed 256-entry table interpolated from five anchor colors,
so identical inputs produce byte-identical rasters on every platform.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .sphere import QFunction, nearest_theta_node

# Anchor colors of the shipped colormap (position in [0,1], RGB in 0..255).
# Dark violet through teal and green to bright yellow; perceptually ordered.
COLORMAP_ANCHORS = (
    (0.00, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.50, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.00, (253, 231, 37)),
)


def _build_colormap() -> np.ndarray:
    pos = np.array([p for p, _ in COLORMAP_ANCHORS])
    cols = np.array([c for _, c in COLORMAP_ANCHORS], dtype=float)
    x = np.arange(256) / 255.0
    table = np.empty((256, 3), dtype=np.uint8)
    for ch in range(3):
        # floor(x + 0.5) is reproducible; np.round's banker rounding is not
        # what most tables use and we want the shipped values to be canonical
        table[:, ch] = np.floor(np.interp(x, pos, cols[:, ch]) + 0.5).astype(np.uint8)
    return table


COLORMAP = _build_colormap()
COLORMAP.setflags(write=False)

# the colormap with the black background as entry 256
PALETTE = np.vstack([COLORMAP, np.zeros((1, 3), dtype=np.uint8)])
PALETTE.setflags(write=False)


def _draw(plan, table: np.ndarray) -> np.ndarray:
    """The RGB image a `plan` (shape, pixels, nodes, seen) draws from a table
    whose rows are span groups: its flat `pixels` show the table's flat
    `nodes`, the others are background.  A row's span is its largest `seen`
    value if positive, else 1; a value's colormap entry is 255 value/span
    clipped to [0, 255] and truncated, so one that ties the span lands on 254
    or 255.  Each row is scaled before the gather, so a pixel's group is its
    node's row and no span is gathered per pixel."""
    shape, pixels, nodes, seen = plan
    vmax = np.where(seen, table, -np.inf).max(axis=1, keepdims=True)
    scaled = (table / np.where(vmax > 0.0, vmax, 1.0)).ravel()[nodes]
    index = np.full(math.prod(shape), len(COLORMAP), dtype=np.intp)
    index[pixels] = np.clip(scaled * 255.0, 0.0, 255.0).astype(np.intp)
    return np.take(PALETTE, index, axis=0).reshape(*shape, 3)


def _plan(shape: tuple, pixels, nodes, table_shape: tuple):
    """The read-only plan of `_draw`, with `seen` the mask of the nodes of a
    `table_shape` table that `nodes` sample."""
    seen = np.zeros(table_shape, dtype=bool)
    seen.ravel()[nodes] = True
    for array in (pixels, nodes, seen):
        array.setflags(write=False)
    return shape, pixels, nodes, seen


def _phi_index(n_phi: int, phi) -> np.ndarray:
    """Index of the uniform phi node nearest to each phi, wrapping at 2 pi."""
    dphi = 2.0 * math.pi / n_phi
    return np.floor(np.mod(phi, 2.0 * math.pi) / dphi + 0.5).astype(np.intp) % n_phi


# plans kept per (view, raster size, grid) or (raster size, phi grid, rings);
# a run draws at one raster size on one grid, so a few entries cover it
_PLAN_CACHE_SIZE = 8


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _heatmap_plan(projection: str, rows: int, cols: int, theta_nodes: bytes, n_phi: int):
    """The plan of a view: the pixels that show the sphere (all of an
    equirectangular map, the disk of an axis view) sample the grid node
    nearest to their directions, in one group over the whole grid."""
    theta_nodes = np.frombuffer(theta_nodes)
    if projection == "equirectangular":
        shape = (rows, cols)
        theta = (np.arange(rows) + 0.5) * math.pi / rows
        phi = (np.arange(cols) + 0.5) * 2.0 * math.pi / cols
        theta, phi = np.meshgrid(theta, phi, indexing="ij")
        visible = np.ones(shape, dtype=bool)
    else:
        shape = (min(rows, cols),) * 2
        theta, phi, visible = _axis_view_angles(projection, *_pixel_plane(shape[0]))
    pixels = np.flatnonzero(visible)
    nodes = (nearest_theta_node(theta_nodes, theta.ravel()[pixels]) * n_phi
             + _phi_index(n_phi, phi.ravel()[pixels]))
    return _plan(shape, pixels, nodes, (1, len(theta_nodes) * n_phi))


def render_heatmap(q: QFunction, projection: str = "equirectangular",
                   resolution: tuple[int, int] = (64, 128)) -> np.ndarray:
    """Rasterize a Q function.

    projection 'equirectangular': rows are theta in (0, pi) top to bottom,
    columns phi in [0, 2 pi).  projection 'x'/'y'/'z': orthographic view of the
    sphere along that axis, visible hemisphere only, black outside the disk.
    Values are sampled at the nearest grid node and normalized per image: the
    span is the largest sample if it is positive, else 1, so an image with no
    positive sample is painted in the colormap's entry 0.
    The pixel-to-node plan is built once per view, raster size and grid.
    """
    if projection not in ("equirectangular", "x", "y", "z"):
        raise ValueError(f"unknown projection {projection!r}")
    plan = _heatmap_plan(projection, *resolution, q.grid.theta.tobytes(), q.grid.n_phi)
    return _draw(plan, q.values.reshape(1, -1))


def _pixel_plane(side: int):
    # image coordinates: row 0 at the top; u to the right, v upward; the
    # planes are broadcast views of one row and one column, not copies
    coords = (np.arange(side) + 0.5) / side * 2.0 - 1.0
    v, u = np.meshgrid(-coords, coords, indexing="ij", copy=False)
    return u, v


def _axis_view_angles(axis: str, u, v):
    r2 = u * u + v * v
    visible = r2 <= 1.0
    w = np.sqrt(np.clip(1.0 - r2, 0.0, None))  # component toward the viewer
    if axis == "z":
        x, y, z = u, v, w
    elif axis == "x":
        x, y, z = w, u, v
    else:  # y
        x, y, z = -u, w, v
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.mod(np.arctan2(y, x), 2.0 * math.pi)
    return theta, phi, visible


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _foliation_plan(side: int, n_phi: int, spins: tuple):
    """The plan of the rings of `spins`, a group each: a pixel near its nearest
    ring samples that ring's equator row at the phi node nearest its angle."""
    u, v = _pixel_plane(side)
    rho = np.sqrt(u * u + v * v).ravel()
    pixels = ring = np.zeros(0, dtype=np.intp)
    if spins:
        radii = np.array([math.sqrt(s * (s + 1.0)) for s in spins])
        radii = radii / radii.max()
        half_width = 0.45 * np.min(np.diff(radii, prepend=0.0))
        # the rings are disjoint, so each pixel is tested against its nearest
        ring = np.searchsorted(0.5 * (radii[1:] + radii[:-1]), rho)
        pixels = np.flatnonzero(np.abs(rho - radii[ring]) <= half_width)
        ring = ring[pixels]
    nodes = ring * n_phi + _phi_index(n_phi, np.arctan2(v, u).ravel()[pixels])
    return _plan((side, side), pixels, nodes, (len(spins), n_phi))


def render_foliation(q: QFunction, side: int = 256) -> np.ndarray:
    """Concentric-ring composite of the manifold Q functions, viewed along z.

    `q` is a total Q function; each of its manifolds with S > 0 occupies an
    annulus at radius proportional to sqrt(S(S+1)); a pixel at planar angle
    psi samples the manifold Q at azimuth psi on the equator, the silhouette
    great circle of the z view, from the total's `equator` rows.  Each ring
    is its own span group, normalized to the largest equator value its
    pixels sample, so faint manifolds remain visible.

    The manifolds come in increasing spin order, so the rings are disjoint
    (half width 0.45 of the smallest radius gap).  The plan is built once
    per raster size, phi grid and set of spins.
    """
    rings = np.array(q.spins) > 0
    plan = _foliation_plan(side, q.grid.n_phi, tuple(s for s in q.spins if s > 0))
    return _draw(plan, q.equator[rings])
