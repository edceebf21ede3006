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


def _nearest_node_sampler(q: QFunction):
    grid = q.grid
    theta_nodes = grid.theta
    phi_nodes = grid.phi
    n_phi = grid.n_phi
    dphi = 2.0 * math.pi / n_phi

    def sample(theta, phi):
        ti = np.searchsorted(theta_nodes, theta)
        ti = np.clip(ti, 1, len(theta_nodes) - 1)
        left = theta_nodes[ti - 1]
        right = theta_nodes[ti]
        ti = np.where(theta - left < right - theta, ti - 1, ti)
        pj = np.floor(np.mod(phi, 2.0 * math.pi) / dphi + 0.5).astype(np.intp) % n_phi
        return q.values[ti, pj]

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


def _pixel_plane(side: int):
    # image coordinates: row 0 at the top; u to the right, v upward
    coords = (np.arange(side) + 0.5) / side * 2.0 - 1.0
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


def render_foliation(q: QFunction, axis: str = "z", side: int = 256) -> np.ndarray:
    """Concentric-ring composite of the manifold Q functions in an axis view.

    `q` is a total Q function; each of its manifold parts with S > 0 occupies
    an annulus at radius proportional to sqrt(S(S+1)); a pixel at planar
    angle psi samples the manifold Q on the silhouette great circle
    perpendicular to the view axis.  Each ring is normalized to its own
    maximum, so faint manifolds remain visible.
    """
    if axis not in ("x", "y", "z"):
        raise ValueError(f"unknown axis {axis!r}")
    parts = [p for p in q.parts if p.spin > 0]
    image = np.empty((side, side, 3), dtype=np.uint8)
    image[:] = BACKGROUND
    if not parts:
        return image
    radii = np.array([math.sqrt(p.spin * (p.spin + 1.0)) for p in parts])
    radii = radii / radii.max()
    half_width = 0.45 * min(
        np.min(np.diff(np.concatenate(([0.0], radii)))) if len(radii) else 1.0, 1.0
    )
    u, v = _pixel_plane(side)
    rho = np.sqrt(u * u + v * v)
    psi = np.mod(np.arctan2(v, u), 2.0 * math.pi)
    for part, r in zip(parts, radii):
        ring = np.abs(rho - r) <= half_width
        if not ring.any():
            continue
        theta, phi = _silhouette_angles(axis, psi[ring])
        vals = _nearest_node_sampler(part)(theta, phi)
        image[ring] = apply_colormap(vals, vmax=float(vals.max()) or 1.0)
    return image


def _silhouette_angles(axis: str, psi):
    # the great circle perpendicular to the view axis, parameterized by the
    # planar angle psi of the ring pixel
    if axis == "z":
        theta = np.full_like(psi, 0.5 * math.pi)
        phi = psi
    elif axis == "x":
        # circle through y and z: direction (0, cos psi, sin psi)
        theta = np.arccos(np.clip(np.sin(psi), -1.0, 1.0))
        phi = np.mod(np.arctan2(np.cos(psi), 0.0), 2.0 * math.pi)
    else:  # y: circle through z and x: direction (-cos psi, 0, sin psi)
        theta = np.arccos(np.clip(np.sin(psi), -1.0, 1.0))
        phi = np.mod(np.arctan2(0.0, -np.cos(psi)), 2.0 * math.pi)
    return theta, phi


def write_ppm(image: np.ndarray, path) -> None:
    """Binary P6 pixmap, row-major, top row first."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError("image must be an (H, W, 3) uint8 array")
    header = f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(image.tobytes())
