"""Raster rendering of Q functions: equirectangular maps, axis views, ring foliations.

All images are 8-bit RGB arrays written as binary portable pixmaps (P6).  The
colormap is a fixed 256-entry table interpolated from five anchor colors, so
identical inputs produce byte-identical rasters on every platform.
"""

from __future__ import annotations

import hashlib
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

BACKGROUND = np.array([0, 0, 0], dtype=np.uint8)
# the colormap with the background as entry 256, for images drawn as indices
_PALETTE = np.vstack([COLORMAP, BACKGROUND])
_PALETTE.setflags(write=False)


def _color_index(values: np.ndarray, span) -> np.ndarray:
    """The colormap entry of each value, 255 values/span clipped to [0, 255] and
    truncated: a value that ties the span exactly may land on 254 or 255."""
    return np.clip(values / span * 255.0, 0.0, 255.0).astype(np.intp)


def apply_colormap(values: np.ndarray, vmax: float | None = None) -> np.ndarray:
    """Map an array of floats to RGB through the fixed table, over [0, vmax].

    Default normalization is per-image: vmax the array maximum, which is the
    only scale recoverable for density plots normalized per figure.
    """
    values = np.asarray(values, dtype=float)
    if vmax is None:
        vmax = float(values.max()) if values.size else 1.0
    idx = _color_index(values, vmax) if vmax > 0.0 else np.zeros(values.shape, np.intp)
    return np.take(COLORMAP, idx, axis=0)


def _phi_index(n_phi: int, phi) -> np.ndarray:
    """Index of the uniform phi node nearest to each phi, wrapping at 2 pi."""
    dphi = 2.0 * math.pi / n_phi
    return np.floor(np.mod(phi, 2.0 * math.pi) / dphi + 0.5).astype(np.intp) % n_phi


# pixel maps kept per (raster size, grid) or (raster size, rings); a run
# draws at one raster size on one grid, so a few entries cover it
_PLAN_CACHE_SIZE = 8


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _heatmap_plan(projection: str, rows: int, cols: int, theta_nodes: bytes, n_phi: int):
    """The flat index of the grid node nearest to each pixel's direction, and
    the mask of pixels outside the axis-view disk (None for equirectangular).
    Those hidden pixels point one past the last node, where `render_heatmap`
    puts a zero, so the image's normalization still counts them as zeros."""
    theta_nodes = np.frombuffer(theta_nodes)
    if projection == "equirectangular":
        theta = (np.arange(rows) + 0.5) * math.pi / rows
        phi = (np.arange(cols) + 0.5) * 2.0 * math.pi / cols
        th, ph = np.meshgrid(theta, phi, indexing="ij")
        nodes = nearest_theta_node(theta_nodes, th) * n_phi + _phi_index(n_phi, ph)
        hidden = None
    else:
        side = min(rows, cols)
        u, v = _pixel_plane(side)
        theta, phi, visible = _axis_view_angles(projection, u, v)
        nodes = np.full((side, side), len(theta_nodes) * n_phi, dtype=np.intp)
        nodes[visible] = (nearest_theta_node(theta_nodes, theta[visible]) * n_phi
                          + _phi_index(n_phi, phi[visible]))
        hidden = ~visible
        hidden.setflags(write=False)
    nodes.setflags(write=False)
    return nodes, hidden


def render_heatmap(q: QFunction, projection: str = "equirectangular",
                   resolution: tuple[int, int] = (64, 128)) -> np.ndarray:
    """Rasterize a Q function.

    projection 'equirectangular': rows are theta in (0, pi) top to bottom,
    columns phi in [0, 2 pi).  projection 'x'/'y'/'z': orthographic view of the
    sphere along that axis, visible hemisphere only, black outside the disk.
    Values are sampled at the nearest grid node and normalized per image.
    The pixel-to-node map is built once per view, raster size and grid.
    """
    if projection not in ("equirectangular", "x", "y", "z"):
        raise ValueError(f"unknown projection {projection!r}")
    rows, cols = resolution
    grid = q.grid
    nodes, hidden = _heatmap_plan(projection, rows, cols, grid.theta.tobytes(), grid.n_phi)
    if hidden is None:
        return apply_colormap(q.values.ravel()[nodes])
    vals = np.append(q.values, 0.0)[nodes]
    image = apply_colormap(vals, vmax=float(vals.max()) or 1.0)
    image[hidden] = BACKGROUND
    return image


def _pixel_coords(side: int) -> np.ndarray:
    """Pixel centres along one image axis, in (-1, 1)."""
    return (np.arange(side) + 0.5) / side * 2.0 - 1.0


def _pixel_plane(side: int):
    # image coordinates: row 0 at the top; u to the right, v upward
    coords = _pixel_coords(side)
    v, u = np.meshgrid(-coords, coords, indexing="ij")
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


def _ring_pixels(radii: np.ndarray, half_width: float, side: int):
    """Flat indices of the pixels within half_width of a ring radius, and the
    ring of each.  The rings are disjoint, so only the nearest ring is tested;
    rho is _pixel_plane's sqrt(u*u + v*v), kept on a band around the rings
    wide enough to hold every pixel the test accepts."""
    coords = _pixel_coords(side)
    square = coords * coords
    rho = np.sqrt(np.add.outer(square, square)).ravel()
    band = np.flatnonzero(
        (rho >= radii[0] - 2.0 * half_width) & (rho <= radii[-1] + 2.0 * half_width)
    )
    rho = rho[band]
    ring = np.searchsorted(0.5 * (radii[1:] + radii[:-1]), rho)
    hit = np.flatnonzero(np.abs(rho - radii[ring]) <= half_width)
    return band[hit], ring[hit]


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _foliation_plan(side: int, n_phi: int, spins: tuple):
    """The pixels the rings of `spins` cover, the ring of each, the flat
    (ring, phi node) each samples, and the (ring, phi node) pairs hit."""
    radii = np.array([math.sqrt(s * (s + 1.0)) for s in spins])
    radii = radii / radii.max()
    half_width = 0.45 * np.min(np.diff(radii, prepend=0.0))
    pixels, ring = _ring_pixels(radii, half_width, side)
    coords = _pixel_coords(side)
    psi = np.mod(np.arctan2(-coords[pixels // side], coords[pixels % side]), 2.0 * math.pi)
    samples = ring * n_phi + _phi_index(n_phi, psi)
    seen = np.zeros((len(spins), n_phi), dtype=bool)
    seen.ravel()[samples] = True
    for array in (pixels, ring, samples, seen):
        array.setflags(write=False)
    return pixels, ring, samples, seen


def render_foliation(q: QFunction, side: int = 256) -> np.ndarray:
    """Concentric-ring composite of the manifold Q functions, viewed along z.

    `q` is a total Q function; each of its manifolds with S > 0 occupies an
    annulus at radius proportional to sqrt(S(S+1)); a pixel at planar angle
    psi samples the manifold Q at azimuth psi on the equator, the silhouette
    great circle of the z view, from the total's `equator` rows.  Each ring
    is normalized to its own maximum, so faint manifolds remain visible.

    The manifolds come in increasing spin order, so the rings are disjoint
    (half width 0.45 of the smallest radius gap): each pixel is tested against
    its nearest ring only, once per raster size, phi grid and set of spins;
    each image is then one gather, and the ring maxima are taken over the
    equator nodes each ring hits.
    """
    index = np.full(side * side, len(COLORMAP), dtype=np.intp)  # the background
    rings = np.array(q.spins) > 0
    if rings.any():
        spins = tuple(s for s in q.spins if s > 0)
        pixels, ring, samples, seen = _foliation_plan(side, q.grid.n_phi, spins)
        equator = q.equator[rings]
        vals = equator.ravel()[samples]
        vmax = np.where(seen, equator, -np.inf).max(axis=1)
        # apply_colormap(vals, vmax=max or 1.0) per ring; a ring whose maximum is
        # not positive has no positive sample, so a span of 1 maps it to index 0
        span = np.where(vmax > 0.0, vmax, 1.0)
        index[pixels] = _color_index(vals, span[ring])
    return np.take(_PALETTE, index, axis=0).reshape(side, side, 3)


def write_ppm(image: np.ndarray, path) -> str:
    """Binary P6 pixmap, row-major, top row first; returns the SHA-256 of the
    bytes written."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError("image must be an (H, W, 3) uint8 array")
    header = f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii")
    payload = image.tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    digest = hashlib.sha256(header)
    digest.update(payload)
    return digest.hexdigest()
