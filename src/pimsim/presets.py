"""Built-in workload skeletons: AlexNet, VGG16, ResNet18.

Canonical published geometries, with two documented simplifications: pooling
is non-overlapping (window = stride, so AlexNet's 3/2 pools become 2/2 with
truncation, which still lands on the canonical 27/13/6 feature sizes), and
ResNet18's downsample shortcuts are plain copy edges rather than extra conv
layers, keeping the 18-layer count (17 conv + 1 fc).

Parallelism presets are per-network tuples P1..P5; every entry divides its
layer's output filter or neuron count.
"""

from __future__ import annotations

from .mapper import MappingError, NetworkDescription, conv_layer, linear_layer

PRESET_NAMES = ("alexnet", "vgg16", "resnet18")

PARALLELISM = {
    "alexnet": {
        "P1": (1, 1, 1, 1, 1, 1, 1, 1),
        "P2": (2, 2, 2, 2, 2, 2, 2, 2),
        "P3": (4, 4, 4, 4, 4, 4, 2, 1),
    },
    "vgg16": {
        "P1": (1,) * 16,
        "P2": (2,) * 16,
        "P3": (4,) * 16,
        "P4": (8,) * 13 + (4, 4, 4),
        "P5": (8,) * 13 + (1, 1, 1),
    },
    "resnet18": {
        "P1": (1,) * 18,
    },
}


def _alexnet() -> list:
    return [
        conv_layer(H=227, W=227, I=3, O=96, K=11, s=4, pool=2),       # 55 -> 27
        conv_layer(H=27, W=27, I=96, O=256, K=5, p=2, pool=2),        # 27 -> 13
        conv_layer(H=13, W=13, I=256, O=384, K=3, p=1),
        conv_layer(H=13, W=13, I=384, O=384, K=3, p=1),
        conv_layer(H=13, W=13, I=384, O=256, K=3, p=1, pool=2),       # 13 -> 6
        linear_layer(w1=6 * 6 * 256, w2=4096),
        linear_layer(w1=4096, w2=4096),
        linear_layer(w1=4096, w2=1000),
    ]


def _vgg16() -> list:
    cfg = [
        (224, 3, 64, False), (224, 64, 64, True),
        (112, 64, 128, False), (112, 128, 128, True),
        (56, 128, 256, False), (56, 256, 256, False), (56, 256, 256, True),
        (28, 256, 512, False), (28, 512, 512, False), (28, 512, 512, True),
        (14, 512, 512, False), (14, 512, 512, False), (14, 512, 512, True),
    ]
    layers = [
        conv_layer(H=h, W=h, I=i, O=o, K=3, p=1, pool=2 if pool else None)
        for h, i, o, pool in cfg
    ]
    layers += [
        linear_layer(w1=7 * 7 * 512, w2=4096),
        linear_layer(w1=4096, w2=4096),
        linear_layer(w1=4096, w2=1000),
    ]
    return layers


def _resnet18() -> tuple[list, list]:
    layers = [conv_layer(H=224, W=224, I=3, O=64, K=7, p=3, s=2, pool=2)]  # -> 56
    stages = [(56, 64), (28, 128), (14, 256), (7, 512)]
    in_ch = 64
    for s_idx, (hw, ch) in enumerate(stages):
        for b in range(2):
            first = b == 0 and s_idx > 0
            layers.append(
                conv_layer(
                    H=hw * 2 if first else hw, W=hw * 2 if first else hw,
                    I=in_ch, O=ch, K=3, p=1, s=2 if first else 1,
                )
            )
            layers.append(conv_layer(H=hw, W=hw, I=ch, O=ch, K=3, p=1))
            in_ch = ch
    # Global pooling folded onto the last conv; max over the 7x7 map.
    layers[-1] = conv_layer(H=7, W=7, I=512, O=512, K=3, p=1, pool=7)
    layers.append(linear_layer(w1=512, w2=1000))
    # Skip edges around each conv pair: output of layer 2b combines into the
    # output of layer 2b+2.
    edges = [(2 * b, 2 * b + 2) for b in range(8)]
    return layers, edges


def preset(name: str, parallelism: str = "P1", precision: int = 4
           ) -> NetworkDescription:
    """Build a named workload with one of its listed parallelism vectors."""
    key = name.lower()
    if key not in PRESET_NAMES:
        raise MappingError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    vectors = PARALLELISM[key]
    if parallelism not in vectors:
        raise MappingError(
            f"{name} has parallelism presets {sorted(vectors)}, not {parallelism!r}"
        )
    edges: list[tuple[int, int]] = []
    if key == "alexnet":
        layers = _alexnet()
    elif key == "vgg16":
        layers = _vgg16()
    else:
        layers, edges = _resnet18()
    return NetworkDescription(
        name=f"{key}-{parallelism}",
        precision=precision,
        layers=layers,
        parallelism=list(vectors[parallelism]),
        residual_edges=edges,
    )
