"""Seeded generator of the synth-wide knowledge base and example files.

Trains-shaped data at scale: each train pulls 2-4 cars (the first through
``firstCar``, a subrole of ``hasCar``), and each car carries 0-2 loads, a
numeric ``carLength`` and a boolean ``hasRoof``. 4,000 trains give about
28k individuals and 128k lines. A train is a positive example exactly when
it pulls a car that is both closed and short, so
``(hasCar some (ClosedCar and ShortCar))`` separates the examples, and every
train is an example.

The learner only ever sees the returned text. The same seed gives
byte-identical text; only ``random.Random(seed)`` drives the choices.
"""

from __future__ import annotations

import random

CLASSES = ("Train", "Car", "Load", "ClosedCar", "OpenCar", "ShortCar",
           "LongCar", "CircleLoad", "SquareLoad", "TriangleLoad")
SUBCLASSES = (("ClosedCar", "Car"), ("OpenCar", "Car"), ("ShortCar", "Car"),
              ("LongCar", "Car"), ("CircleLoad", "Load"),
              ("SquareLoad", "Load"), ("TriangleLoad", "Load"))
ROLES = ("hasCar", "firstCar", "hasLoad")
LOAD_SHAPES = ("CircleLoad", "SquareLoad", "TriangleLoad")
# Short cars measure 1 or 2, long cars 3 or 4; with thousands of cars every
# value occurs, so the numeric boundaries do not depend on the seed.
LENGTHS = {"ShortCar": (1.0, 2.0), "LongCar": (3.0, 4.0)}


def generate(seed: int, trains: int = 4000) -> tuple[str, str]:
    """Return ``(kb_text, examples_text)`` for ``trains`` trains."""
    rng = random.Random(seed)
    decls: list[str] = []
    body: list[str] = []
    examples: list[str] = []
    for t in range(trains):
        train = f"t{t}"
        decls.append(f"individual {train}")
        body.append(f"instance Train {train}")
        positive = False
        for k in range(rng.randint(2, 4)):
            car = f"c{t}_{k}"
            roof = rng.choice(("ClosedCar", "OpenCar"))
            size = rng.choice(("ShortCar", "LongCar"))
            positive |= roof == "ClosedCar" and size == "ShortCar"
            decls.append(f"individual {car}")
            body += [f"instance Car {car}", f"instance {roof} {car}",
                     f"instance {size} {car}",
                     f"fact {'hasCar' if k else 'firstCar'} {train} {car}",
                     f"numfact carLength {car} {rng.choice(LENGTHS[size])}",
                     f"boolfact hasRoof {car} {'true' if rng.random() < 0.5 else 'false'}"]
            for j in range(rng.randint(0, 2)):
                load = f"l{t}_{k}_{j}"
                decls.append(f"individual {load}")
                body += [f"instance {rng.choice(LOAD_SHAPES)} {load}",
                         f"fact hasLoad {car} {load}"]
        examples.append(f"{'+' if positive else '-'} {train}")
    head = [f"class {c}" for c in CLASSES]
    head += [f"subclass {sub} {sup}" for sub, sup in SUBCLASSES]
    head += [f"role {r}" for r in ROLES]
    head += ["subrole firstCar hasCar", "numrole carLength", "boolrole hasRoof"]
    kb_text = "\n".join(head + decls + body) + "\n"
    return kb_text, "\n".join(examples) + "\n"
