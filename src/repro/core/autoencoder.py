"""The convolutional auto-encoder used for data augmentation (Fig. 3).

The encoder stacks 5x5 convolutions each followed by 2x2 max-pooling;
the decoder mirrors it with convolutions and nearest-neighbour
upsampling ("deconvolution and upsampling replacing the convolution and
maxpooling operations", Sec. III-B).  The bottleneck activation is the
latent representation ``z`` that Algorithm 1 perturbs with Gaussian
noise to synthesize new wafers.

Fig. 3's exact filter counts are not legible from the paper text; this
reproduction defaults to (16, 8, 8), a standard light-weight choice
that reconstructs 64x64 wafer maps well.  The counts are configurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..data.dataset import WaferDataset
from ..data.wafer import grid_to_tensor
from ..parallel.pool import kept_heap

__all__ = ["AutoencoderConfig", "ConvAutoencoder", "train_autoencoder"]


@dataclass
class AutoencoderConfig:
    """Hyper-parameters of the convolutional auto-encoder."""

    input_size: int = 64
    channels: Tuple[int, ...] = (16, 8, 8)
    kernel_size: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        stages = len(self.channels)
        if self.input_size % (2 ** stages) != 0:
            raise ValueError(
                f"input_size {self.input_size} must be divisible by {2 ** stages} "
                f"for {stages} pooling stages"
            )

    @property
    def latent_spatial(self) -> int:
        return self.input_size // (2 ** len(self.channels))

    @property
    def latent_shape(self) -> Tuple[int, int, int]:
        """Shape of ``z`` (channels, height, width)."""
        return (self.channels[-1], self.latent_spatial, self.latent_spatial)


class ConvAutoencoder(nn.Module):
    """Encoder-decoder CNN reconstructing 3-level wafer images.

    ``forward`` returns the reconstruction in [0, 1] (sigmoid output);
    :meth:`encode` / :meth:`decode` expose the two halves for
    Algorithm 1's latent-space perturbation.
    """

    def __init__(self, config: Optional[AutoencoderConfig] = None) -> None:
        super().__init__()
        self.config = config if config is not None else AutoencoderConfig()
        rng = np.random.default_rng(self.config.seed)
        k = self.config.kernel_size

        encoder_layers = []
        in_channels = 1
        for channels in self.config.channels:
            encoder_layers.append(nn.Conv2D(in_channels, channels, k, padding="same", rng=rng))
            encoder_layers.append(nn.ReLU())
            encoder_layers.append(nn.MaxPool2D(2))
            in_channels = channels
        self.encoder = nn.Sequential(*encoder_layers)

        decoder_layers = []
        reversed_channels = list(reversed(self.config.channels))
        for index, channels in enumerate(reversed_channels):
            out_channels = reversed_channels[index + 1] if index + 1 < len(reversed_channels) else 1
            decoder_layers.append(nn.UpSample2D(2))
            decoder_layers.append(nn.Conv2D(channels, out_channels, k, padding="same", rng=rng))
            if index + 1 < len(reversed_channels):
                decoder_layers.append(nn.ReLU())
            else:
                decoder_layers.append(nn.Sigmoid())
        self.decoder = nn.Sequential(*decoder_layers)

    def encode(self, x: nn.Tensor) -> nn.Tensor:
        """Map ``(N, 1, H, W)`` inputs to latent ``(N, C, h, w)``."""
        return self.encoder(x)

    def decode(self, z: nn.Tensor) -> nn.Tensor:
        """Map latents back to ``(N, 1, H, W)`` reconstructions in [0,1]."""
        return self.decoder(z)

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        return self.decode(self.encode(x))

    # ------------------------------------------------------------------
    def _stream(self, fn, inputs: np.ndarray, item_shape: Tuple[int, ...],
                batch_size: int) -> np.ndarray:
        """Run ``fn`` chunk-wise with no tape.

        Writes into a preallocated ``(N,) + item_shape`` output so peak
        memory stays fixed regardless of ``len(inputs)``.
        """
        count = len(inputs)
        dtype = next(iter(self.parameters())).dtype
        out = np.empty((count,) + item_shape, dtype=dtype)
        with nn.inference_mode():
            was_training = self.training
            self.eval()
            for start in range(0, count, batch_size):
                stop = min(start + batch_size, count)
                out[start:stop] = fn(nn.Tensor(inputs[start:stop])).data
            self.train(was_training)
        return out

    def reconstruct(self, inputs: np.ndarray, batch_size: int = 128) -> np.ndarray:
        """Batched inference returning reconstructions as a numpy array."""
        size = self.config.input_size
        return self._stream(self.forward, inputs, (1, size, size), batch_size)

    def encode_numpy(self, inputs: np.ndarray, batch_size: int = 128) -> np.ndarray:
        """Batched latent extraction (Algorithm 1, line 3)."""
        return self._stream(self.encode, inputs, self.config.latent_shape, batch_size)

    def decode_numpy(self, latents: np.ndarray, batch_size: int = 128) -> np.ndarray:
        """Batched decoding (Algorithm 1, line 6)."""
        size = self.config.input_size
        return self._stream(self.decode, latents, (1, size, size), batch_size)


@kept_heap()
def train_autoencoder(
    samples: np.ndarray,
    config: Optional[AutoencoderConfig] = None,
    epochs: int = 40,
    batch_size: int = 32,
    learning_rate: float = 1e-3,
    seed: int = 0,
    verbose: bool = False,
) -> ConvAutoencoder:
    """Train a per-class auto-encoder on die grids (Algorithm 1, line 1).

    Parameters
    ----------
    samples:
        ``(N, H, W)`` die grids of one defect class.
    config:
        Auto-encoder architecture; inferred input size when omitted.

    Returns the trained model (in eval mode).  Training runs on a kept
    heap (:func:`~repro.parallel.pool.kept_heap`): glibc's allocator
    thresholds are pinned as it starts and stay pinned for the rest of
    the process, and the heap's free pages go back to the kernel when
    it returns or raises.
    """
    samples = np.asarray(samples)
    if samples.ndim != 3:
        raise ValueError("samples must be (N, H, W) die grids")
    if len(samples) == 0:
        raise ValueError("cannot train an auto-encoder on zero samples")
    if config is None:
        config = AutoencoderConfig(input_size=samples.shape[1], seed=seed)
    model = ConvAutoencoder(config)
    optimizer = nn.Adam(model.parameters(), lr=learning_rate)
    rng = np.random.default_rng(seed)

    inputs = np.stack([grid_to_tensor(grid) for grid in samples])
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(inputs))
        epoch_loss = 0.0
        for start in range(0, len(order), batch_size):
            batch = inputs[order[start:start + batch_size]]
            tensor = nn.Tensor(batch)
            reconstruction = model(tensor)
            loss = nn.mse_loss(reconstruction, batch)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_loss += float(loss.data) * len(batch)
        if verbose:
            print(f"AE epoch {epoch:3d} mse={epoch_loss / len(inputs):.5f}")
    model.eval()
    return model
