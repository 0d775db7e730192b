"""The execution backend of compiled graphs: :class:`NumpyBackend`.

It answers three questions per fused kernel:

* :meth:`NumpyBackend.scratch_requests` — how many bytes of
  kernel-private scratch it wants (the planner carves these out of the
  shared arena with kernel-only lifetimes);
* :meth:`NumpyBackend.hosts_output` — whether the lowering publishes
  the kernel's output itself instead of filling a planned arena slot;
* :meth:`NumpyBackend.lower` — a Python closure executing the kernel
  against the run environment.

Trace, fusion and planning know nothing of how kernels execute; the
compiler hands one module-level instance to the planner and the
executor (:mod:`repro.nn.compile.api`).

The backend mirrors the plain eager forward (the tape's forward with
recording off) *operation for operation* — the same tap-major columns
(copied from the channels-last padded image's window view, or for one
input channel gathered through the same cached map), the same permuted
filters and GEMM call shapes, the same bias/activation arithmetic, the
same window-tap pooling passes — so compiled outputs are bit-identical
to eager outputs (pinned by ``tests/compile/test_compile_parity.py``).
The padded image and the columns live in planned arena scratch.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from .. import functional as F
from .fuse import FusedProgram, Kernel
from .ir import LazyOp, UnsupportedOpError

__all__ = ["BATCH", "NumpyBackend"]

#: ``getter(env) -> ndarray`` — resolves one graph value for this run.
Getter = Callable[[dict], np.ndarray]

#: Run-environment key holding the run's batch size ``n``.  Graphs are
#: planned at a batch capacity; getters hand kernels the ``[:n]``
#: leading-axis prefix of every value, and kernels size each run from
#: ``n`` or the arrays they are given, never from the planned op shapes.
BATCH = "n"


def _itemsize(op: LazyOp) -> int:
    return int(np.dtype(op.dtype).itemsize)


def _conv_input_shape(root: LazyOp) -> Tuple[int, ...]:
    """A conv's planned (capacity) batch, plus the traced (C_in, H, W)."""
    return (root.shape[0],) + root.params["input_chw"]


def _is_conv_kernel(kernel: Kernel) -> bool:
    return kernel.kind == "gemm" and kernel.ops[0].kind == "conv2d"


def _narrowing_conv(kernel: Kernel) -> bool:
    """True for a conv kernel that runs as a transposed convolution
    (:func:`repro.nn.functional.narrows`), as its eager twin does."""
    if not _is_conv_kernel(kernel):
        return False
    root = kernel.ops[0]
    return F.narrows(
        root.params["input_chw"][0], root.shape[1], root.params["kernel"],
        root.params["stride"], root.params["padding"],
    )


class NumpyBackend:
    """The eager numpy forward, arena-hosted.

    Every lowering below replays the numpy arithmetic of the
    corresponding eager op, because bit-identical parity is part of the
    compiled path's contract.  Change one only together with its eager
    twin (and the parity wall will tell you if you forget).  The class
    holds no state, so one instance serves every graph.
    """

    # ------------------------------------------------------------------
    # Scratch sizing
    # ------------------------------------------------------------------
    def scratch_requests(
        self, kernel: Kernel, program: FusedProgram
    ) -> List[Tuple[str, int]]:
        """``(tag, nbytes)`` scratch wanted while ``kernel`` runs."""
        root = kernel.ops[0]
        if root.kind != "conv2d":
            return []
        n, c_in, h, w = _conv_input_shape(root)
        kh, kw = root.params["kernel"]
        ph, pw = root.params["padding"]
        c_out = root.shape[1]
        item = _itemsize(root)
        out_hw = root.shape[2] * root.shape[3]
        requests: List[Tuple[str, int]] = []
        if _narrowing_conv(kernel):
            # The transposed-conv GEMM's (N*H*W, kh*kw*C_out) columns.
            requests.append(("cols", n * h * w * c_out * kh * kw * item))
        else:
            # The channels-last padded image and its tap-major columns.
            if ph or pw:
                requests.append(
                    ("padded", n * c_in * (h + 2 * ph) * (w + 2 * pw) * item)
                )
            requests.append(("cols", n * out_hw * c_in * kh * kw * item))
        if kernel.pool:
            # Pooled convs fill arena GEMM rows (the pooling max
            # allocates the small surviving array).  Unpooled convs
            # fill a fresh per-run buffer whose transposed view
            # *is* the published output, as the eager conv's is, so
            # they want no arena-hosted GEMM scratch.
            requests.append(("gemm", n * out_hw * c_out * item))
        return requests

    def hosts_output(self, kernel: Kernel, program: FusedProgram) -> bool:
        """True if the lowering publishes ``env[kernel.output]`` itself.

        Hosted outputs get no planned arena slot: the kernel hands a
        freshly-owned array to its consumers through the run
        environment instead of filling a preallocated buffer.  Conv
        kernels publish NHWC-strided views (see :meth:`_lower_conv`), so
        they skip the NCHW materialization copy the eager conv never
        pays.
        """
        return _is_conv_kernel(kernel)

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def lower(
        self,
        kernel: Kernel,
        program: FusedProgram,
        get: Callable[[int], Getter],
        out: Getter,
        scratch: Dict[str, np.ndarray],
    ) -> Callable[[dict], None]:
        """Return a closure that executes ``kernel`` for one run.

        ``out(env)`` yields the kernel's output buffer: an arena view
        for planned intermediates, allocated-on-first-use (and
        published into ``env``) for graph outputs.  Kernels for which
        :meth:`hosts_output` is true ignore ``out`` and assign
        ``env[kernel.output]`` themselves.  ``scratch`` is sized for
        the planned capacity; a run uses its leading-axis prefix.
        """
        root = kernel.ops[0]
        if kernel.kind == "gemm" and root.kind == "conv2d":
            return self._lower_conv(kernel, get, out, scratch)
        if kernel.kind == "gemm" and root.kind == "matmul":
            return self._lower_matmul(kernel, get, out)
        if kernel.kind == "elementwise":
            return self._lower_elementwise_chain(kernel, get, out)
        if root.kind == "maxpool":
            taps = F._window_taps(
                program.graph.op(root.inputs[0]).shape,
                root.params["kernel"], root.params["stride"],
            )
            return self._lower_maxpool(taps, get(root.inputs[0]), out)
        single = {
            "upsample": self._lower_upsample,
            "softmax": self._lower_softmax,
        }.get(root.kind)
        if single is None:
            raise UnsupportedOpError(f"numpy backend cannot lower {root.kind!r}")
        return single(root, get(root.inputs[0]), out)

    # -- GEMM-rooted kernels -------------------------------------------
    def _lower_conv(
        self,
        kernel: Kernel,
        get: Callable[[int], Getter],
        out: Getter,
        scratch: Dict[str, np.ndarray],
    ) -> Callable[[dict], None]:
        root = kernel.ops[0]
        capacity = root.shape[0]
        c_out, out_h, out_w = root.shape[1], root.shape[2], root.shape[3]
        out_hw = out_h * out_w
        get_x = get(root.inputs[0])
        get_w = get(root.inputs[1])
        chain = self._chain_appliers(kernel.ops[1:], get, channels_last=True)
        post = self._chain_appliers(kernel.post, get, channels_last=True)
        dt = np.dtype(root.dtype)
        if _narrowing_conv(kernel):
            conv = self._transposed_conv_rows(kernel, scratch)
        else:
            conv = self._im2col_conv_rows(kernel, scratch)
        pool_hw = kernel.pool[0].params["kernel"] if kernel.pool else None
        out_id = kernel.output
        gemm = None
        if "gemm" in scratch:
            gemm = scratch["gemm"].view(dt).reshape(capacity * out_hw, c_out)

        # The output is *published*, not copied out (hosts_output):
        # pooled convs hand over the NHWC-transposed view of the pooling
        # reduction's fresh array, unpooled convs a transposed view of a
        # fresh GEMM buffer — channels-last in memory, like the eager
        # conv and max-pool results, with no NCHW materialization copy.
        def run(env: dict) -> None:
            x = get_x(env)
            n = len(x)
            rows = n * out_hw
            buf = gemm[:rows] if gemm is not None else np.empty((rows, c_out), dtype=dt)
            conv(x, get_w(env), buf)
            for apply in chain:
                apply(buf, env)
            if pool_hw is not None:
                # Eager max_pool2d's window taps, in its row-major order
                # (F._window_taps), so even ties between -0 and +0 match.
                qh, qw = pool_hw
                nhwc = buf.reshape(n, out_h // qh, qh, out_w // qw, qw, c_out)
                pooled = nhwc[:, :, 0, :, 0].copy()
                for i in range(qh):
                    for j in range(qw):
                        if i or j:
                            np.maximum(pooled, nhwc[:, :, i, :, j], out=pooled)
                for apply in post:
                    apply(pooled, env)
                env[out_id] = pooled.transpose(0, 3, 1, 2)
            else:
                env[out_id] = buf.reshape(n, out_h, out_w, c_out).transpose(
                    0, 3, 1, 2
                )

        return run

    def _im2col_conv_rows(
        self, kernel: Kernel, scratch: Dict[str, np.ndarray]
    ) -> Callable[[np.ndarray, np.ndarray, np.ndarray], None]:
        """``conv(x, weight, buf)`` filling ``buf`` ``(N*oh*ow, C_out)``
        with the im2col GEMM of eager :func:`~repro.nn.functional.conv2d`:
        the channels-last padded image and the tap-major columns in arena
        scratch, the columns copied from the image's window view (or,
        for one input channel, gathered through the cached map)."""
        root = kernel.ops[0]
        capacity, c_in, h, w = _conv_input_shape(root)
        kh, kw = root.params["kernel"]
        ph, pw = root.params["padding"]
        stride = root.params["stride"]
        c_out, out_h, out_w = root.shape[1], root.shape[2], root.shape[3]
        index = None
        if c_in == 1:
            index = F._im2col_index(1, h, w, (kh, kw), stride, (ph, pw))
        dt = np.dtype(root.dtype)
        padded = scratch.get("padded")
        if padded is not None:
            padded = padded.view(dt).reshape(capacity, h + 2 * ph, w + 2 * pw, c_in)
        cols6 = scratch["cols"].view(dt).reshape(capacity, out_h, out_w, kh, kw, c_in)

        def conv(x: np.ndarray, weight: np.ndarray, buf: np.ndarray) -> None:
            n = len(x)
            pad = F._pad_channels_last(
                x, (ph, pw), None if padded is None else padded[:n]
            )
            if index is not None:
                np.take(pad.reshape(n, -1), index, axis=1, mode="clip",
                        out=cols6[:n].reshape(n, *index.shape))
            else:
                np.copyto(cols6[:n], F._windows(pad, (kh, kw), stride))
            cols = cols6[:n].reshape(len(buf), kh * kw * c_in)
            np.matmul(cols, F._tap_major(weight).T, out=buf)

        return conv

    def _transposed_conv_rows(
        self, kernel: Kernel, scratch: Dict[str, np.ndarray]
    ) -> Callable[[np.ndarray, np.ndarray, np.ndarray], None]:
        """``conv(x, weight, buf)`` for a narrowing conv: the transposed
        GEMM and ``col2im`` of eager
        :func:`~repro.nn.functional._transposed_conv`, the columns in
        arena scratch and the image in ``buf``."""
        root = kernel.ops[0]
        capacity, c_in, h, w = _conv_input_shape(root)
        kh, kw = root.params["kernel"]
        ph, pw = root.params["padding"]
        c_out, out_h, out_w = root.shape[1], root.shape[2], root.shape[3]
        padding = (kh - 1 - ph, kw - 1 - pw)
        dt = np.dtype(root.dtype)
        cols2 = scratch["cols"].view(dt).reshape(capacity * h * w, c_out * kh * kw)

        def conv(x: np.ndarray, weight: np.ndarray, buf: np.ndarray) -> None:
            n = len(x)
            cols = cols2[:n * h * w]
            x_mat = x.transpose(0, 2, 3, 1).reshape(-1, c_in)
            np.matmul(x_mat, F._flipped_filters(weight), out=cols)
            F.col2im(
                cols, (n, c_out, out_h, out_w), (kh, kw), (1, 1), padding,
                out=buf.reshape(n, out_h, out_w, c_out),
            )

        return conv

    def _lower_matmul(
        self, kernel: Kernel, get: Callable[[int], Getter], out: Getter
    ) -> Callable[[dict], None]:
        get_x = get(kernel.ops[0].inputs[0])
        get_w = get(kernel.ops[0].inputs[1])
        chain = self._chain_appliers(kernel.ops[1:], get, channels_last=True)

        def run(env: dict) -> None:
            target = out(env)
            np.matmul(get_x(env), get_w(env), out=target)
            for apply in chain:
                apply(target, env)

        return run

    # -- Elementwise ----------------------------------------------------
    def _chain_appliers(
        self,
        ops: Tuple[LazyOp, ...],
        get: Callable[[int], Getter],
        channels_last: bool,
    ) -> List[Callable[[np.ndarray, dict], None]]:
        """In-place appliers for a fused elementwise chain.

        ``channels_last`` marks the GEMM-rows layout ``(rows, C)``: the
        channel axis is last regardless of the op's recorded NCHW
        geometry, so per-channel operands broadcast without reshaping.
        Each applier performs the same scalar operations as its eager
        twin, so the result is bit-identical even though the loop order
        over elements differs from NCHW.
        """
        appliers: List[Callable[[np.ndarray, dict], None]] = []
        for op in ops:
            appliers.append(self._applier(op, get, channels_last))
        return appliers

    def _applier(
        self, op: LazyOp, get: Callable[[int], Getter], channels_last: bool
    ) -> Callable[[np.ndarray, dict], None]:
        kind = op.kind
        if kind == "bias_add":
            get_b = get(op.inputs[1])
            axis = op.params.get("channel_axis", -1)
            broadcast = None
            if not channels_last and axis in (1, -3) and len(op.shape) == 4:
                broadcast = (1, op.shape[1], 1, 1)

            def apply(buf: np.ndarray, env: dict) -> None:
                bias = get_b(env)
                buf += bias if broadcast is None else bias.reshape(broadcast)

            return apply
        if kind == "relu":
            return lambda buf, env: np.maximum(buf, 0, out=buf)
        if kind == "sigmoid":
            def apply(buf: np.ndarray, env: dict) -> None:
                np.copyto(buf, _sigmoid(buf))

            return apply
        raise UnsupportedOpError(f"numpy backend cannot fuse {kind!r}")

    def _lower_elementwise_chain(
        self, kernel: Kernel, get: Callable[[int], Getter], out: Getter
    ) -> Callable[[dict], None]:
        get_x = get(kernel.ops[0].inputs[0])
        first = self._first_applier(kernel.ops[0], get)
        rest = self._chain_appliers(kernel.ops[1:], get, channels_last=False)

        def run(env: dict) -> None:
            target = out(env)
            first(get_x(env), target, env)
            for apply in rest:
                apply(target, env)

        return run

    def _first_applier(
        self, op: LazyOp, get: Callable[[int], Getter]
    ) -> Callable[[np.ndarray, np.ndarray, dict], None]:
        """``(x, out, env)`` form of an elementwise op: reads x, fills out."""
        kind = op.kind
        if kind == "relu":
            return lambda x, target, env: np.maximum(x, 0, out=target)
        if kind == "sigmoid":
            return lambda x, target, env: np.copyto(target, _sigmoid(x))
        # bias_add in native layout: stage x then apply in place.
        applier = self._applier(op, get, channels_last=False)

        def run(x: np.ndarray, target: np.ndarray, env: dict) -> None:
            np.copyto(target, x)
            applier(target, env)

        return run

    # -- Singleton kernels ---------------------------------------------
    # The pool replays F.max_pool2d's window-tap passes, accumulating
    # into the planned buffer instead of a fresh array.
    def _lower_maxpool(
        self, taps: List[tuple], get_x: Getter, out: Getter
    ) -> Callable[[dict], None]:
        def run(env: dict) -> None:
            x = get_x(env)
            target = out(env)
            np.copyto(target, x[taps[0]])
            for tap in taps[1:]:
                np.maximum(target, x[tap], out=target)

        return run

    def _lower_upsample(
        self, op: LazyOp, get_x: Getter, out: Getter
    ) -> Callable[[dict], None]:
        scale = op.params["scale"]
        _, c, out_h, out_w = op.shape
        h, w = out_h // scale, out_w // scale

        def run(env: dict) -> None:
            x = get_x(env)
            # Broadcast assignment == x.repeat(scale, 2).repeat(scale, 3).
            blocks = out(env).reshape(len(x), c, h, scale, w, scale)
            blocks[...] = x[:, :, :, None, :, None]

        return run

    def _lower_softmax(
        self, op: LazyOp, get_x: Getter, out: Getter
    ) -> Callable[[dict], None]:
        axis = op.params["axis"]

        def run(env: dict) -> None:
            x = get_x(env)
            target = out(env)
            # Mirrors Tensor.softmax's untaped forward exactly.
            np.subtract(x, x.max(axis=axis, keepdims=True), out=target)
            np.exp(target, out=target)
            target /= target.sum(axis=axis, keepdims=True)

        return run


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The numerically stable logistic of :meth:`Tensor.sigmoid`, verbatim."""
    clipped = np.clip(x, -60, 60)
    return np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-clipped)),
        np.exp(clipped) / (1.0 + np.exp(clipped)),
    ).astype(x.dtype)

