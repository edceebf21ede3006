"""Raster rendering of Q functions: equirectangular maps, axis views, ring foliations.

All images are 8-bit RGB arrays written as binary portable pixmaps (P6).  The
colormap is a fixed 256-entry table interpolated from five anchor colors, so
identical inputs produce byte-identical rasters on every platform.
"""

from __future__ import annotations

import math

import numpy as np

from .sphere import QFunction

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


def apply_colormap(values: np.ndarray, vmin: float = 0.0, vmax: float | None = None) -> np.ndarray:
    """Map an array of floats to RGB through the fixed table.

    Default normalization is per-image: vmin 0, vmax the array maximum, which
    is the only scale recoverable for density plots normalized per figure.
    """
    values = np.asarray(values, dtype=float)
    if vmax is None:
        vmax = float(values.max()) if values.size else 1.0
    span = vmax - vmin
    if span <= 0.0:
        idx = np.zeros(values.shape, dtype=np.intp)
    else:
        idx = np.clip((values - vmin) / span * 255.0, 0.0, 255.0).astype(np.intp)
    return COLORMAP[idx]


def _theta_index(theta_nodes: np.ndarray, theta) -> np.ndarray:
    """Index of the grid's theta node nearest to each theta."""
    ti = np.searchsorted(theta_nodes, theta)
    ti = np.clip(ti, 1, len(theta_nodes) - 1)
    left = theta_nodes[ti - 1]
    right = theta_nodes[ti]
    return np.where(theta - left < right - theta, ti - 1, ti)


def _phi_index(n_phi: int, phi) -> np.ndarray:
    """Index of the uniform phi node nearest to each phi, wrapping at 2 pi."""
    dphi = 2.0 * math.pi / n_phi
    return np.floor(np.mod(phi, 2.0 * math.pi) / dphi + 0.5).astype(np.intp) % n_phi


def _nearest_node_sampler(q: QFunction):
    grid = q.grid

    def sample(theta, phi):
        return q.values[_theta_index(grid.theta, theta), _phi_index(grid.n_phi, phi)]

    return sample


def render_heatmap(q: QFunction, projection: str = "equirectangular",
                   resolution: tuple[int, int] = (64, 128)) -> np.ndarray:
    """Rasterize a Q function.

    projection 'equirectangular': rows are theta in (0, pi) top to bottom,
    columns phi in [0, 2 pi).  projection 'x'/'y'/'z': orthographic view of the
    sphere along that axis, visible hemisphere only, black outside the disk.
    Values are sampled at the nearest grid node and normalized per image.
    """
    if projection == "equirectangular":
        rows, cols = resolution
        theta = (np.arange(rows) + 0.5) * math.pi / rows
        phi = (np.arange(cols) + 0.5) * 2.0 * math.pi / cols
        th, ph = np.meshgrid(theta, phi, indexing="ij")
        vals = _nearest_node_sampler(q)(th, ph)
        return apply_colormap(vals)
    if projection in ("x", "y", "z"):
        side = min(resolution)
        u, v = _pixel_plane(side)
        theta, phi, visible = _axis_view_angles(projection, u, v)
        vals = np.zeros((side, side))
        sampler = _nearest_node_sampler(q)
        vals[visible] = sampler(theta[visible], phi[visible])
        image = np.empty((side, side, 3), dtype=np.uint8)
        image[:] = BACKGROUND
        image[visible] = apply_colormap(vals, vmax=float(vals.max()) or 1.0)[visible]
        return image
    raise ValueError(f"unknown projection {projection!r}")


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
    ring = ring.astype(np.min_scalar_type(len(radii)))
    hit = np.flatnonzero(np.abs(rho - radii[ring]) <= half_width)
    return band[hit], ring[hit]


def render_foliation(q: QFunction, side: int = 256) -> np.ndarray:
    """Concentric-ring composite of the manifold Q functions, viewed along z.

    `q` is a total Q function; each of its manifold parts with S > 0 occupies
    an annulus at radius proportional to sqrt(S(S+1)); a pixel at planar
    angle psi samples the manifold Q at azimuth psi on the equator, the
    silhouette great circle of the z view.  Each ring is normalized to its
    own maximum, so faint manifolds remain visible.

    The parts come in increasing spin order, so the rings are disjoint (half
    width 0.45 of the smallest radius gap): each pixel is tested against its
    nearest ring only, all rings are sampled in one gather, and the ring
    maxima are taken over the equator nodes each ring hits.
    """
    parts = [p for p in q.parts if p.spin > 0]
    image = np.empty((side, side, 3), dtype=np.uint8)
    image[:] = BACKGROUND
    if not parts:
        return image
    radii = np.array([math.sqrt(p.spin * (p.spin + 1.0)) for p in parts])
    radii = radii / radii.max()
    half_width = 0.45 * np.min(np.diff(radii, prepend=0.0))
    pixels, ring = _ring_pixels(radii, half_width, side)
    coords = _pixel_coords(side)
    psi = np.mod(np.arctan2(-coords[pixels // side], coords[pixels % side]), 2.0 * math.pi)
    grid = q.grid
    node = _phi_index(grid.n_phi, psi)
    equator = np.stack([p.values[_theta_index(grid.theta, 0.5 * math.pi)] for p in parts])
    vals = equator[ring, node]
    seen = np.zeros(equator.shape, dtype=bool)
    seen[ring, node] = True
    vmax = np.where(seen, equator, -np.inf).max(axis=1)
    # apply_colormap(vals, vmax=max or 1.0) per ring; a ring whose maximum is
    # not positive has no positive sample, so a span of 1 maps it to index 0
    span = np.where(vmax > 0.0, vmax, 1.0)
    idx = np.clip(vals / span[ring] * 255.0, 0.0, 255.0).astype(np.intp)
    image.reshape(-1, 3)[pixels] = COLORMAP[idx]
    return image


def write_ppm(image: np.ndarray, path) -> None:
    """Binary P6 pixmap, row-major, top row first."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError("image must be an (H, W, 3) uint8 array")
    header = f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(image.tobytes())
