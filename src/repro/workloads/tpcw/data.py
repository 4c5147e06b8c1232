"""Synthetic data generator for the TPC-W customer-facing subset.

The paper loads "75 Emulated Browsers' worth of user data for each storage
node" while holding the number of items constant at 10,000 (Section 8.4.1).
The generator follows the same layout — customer-derived data grows with the
cluster, the catalogue (items, authors) stays fixed — with configurable,
scaled-down absolute sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List

from ...engine.database import PiqlDatabase
from .schema import SUBJECTS

_FIRST_NAMES = [
    "ada", "grace", "alan", "edsger", "barbara", "donald", "leslie", "tim",
    "radia", "vint", "frances", "john", "margaret", "dennis", "ken", "linus",
]
_LAST_NAMES = [
    "lovelace", "hopper", "turing", "dijkstra", "liskov", "knuth", "lamport",
    "berners", "perlman", "cerf", "allen", "backus", "hamilton", "ritchie",
    "thompson", "torvalds",
]
_TITLE_WORDS = [
    "distributed", "systems", "cloud", "scalable", "database", "query",
    "storage", "consistency", "latency", "throughput", "adventure", "garden",
    "midnight", "river", "mountain", "secret", "journey", "algorithm",
    "performance", "design",
]
_CITIES = ["berkeley", "seattle", "austin", "boston", "chicago", "portland"]

#: Per-customer history and reference-table sizes of the generated data.
ORDERS_PER_CUSTOMER = 2
LINES_PER_ORDER = 3
CART_LINES_PER_CUSTOMER = 3
COUNTRIES = 20


@dataclass
class TpcwDataConfig:
    """Sizing knobs for the TPC-W dataset."""

    customers: int = 2000
    items: int = 1000
    seed: int = 42

    @property
    def authors(self) -> int:
        return max(1, self.items // 4)

    def customer_uname(self, index: int) -> str:
        return f"cust{index:08d}"


class TpcwDataGenerator:
    """Generates and bulk loads the TPC-W dataset."""

    def __init__(self, config: TpcwDataConfig):
        self.config = config
        self._rng = random.Random(config.seed)

    # ------------------------------------------------------------------
    # Row generators
    # ------------------------------------------------------------------
    def countries(self) -> Iterator[Dict[str, object]]:
        for index in range(COUNTRIES):
            yield {
                "CO_ID": index + 1,
                "CO_NAME": f"country{index + 1}",
                "CO_EXCHANGE": 1.0 + index / 10.0,
                "CO_CURRENCY": "credits",
            }

    def addresses(self) -> Iterator[Dict[str, object]]:
        for index in range(self.config.customers):
            yield {
                "ADDR_ID": index + 1,
                "ADDR_STREET1": f"{index + 1} main street",
                "ADDR_STREET2": "",
                "ADDR_CITY": self._rng.choice(_CITIES),
                "ADDR_STATE": "CA",
                "ADDR_ZIP": f"{94700 + index % 100}",
                "ADDR_CO_ID": self._rng.randrange(COUNTRIES) + 1,
            }

    def customers(self) -> Iterator[Dict[str, object]]:
        for index in range(self.config.customers):
            yield {
                "C_UNAME": self.config.customer_uname(index),
                "C_PASSWD": f"pw{index % 1009}",
                "C_FNAME": self._rng.choice(_FIRST_NAMES),
                "C_LNAME": self._rng.choice(_LAST_NAMES),
                "C_EMAIL": f"user{index}@example.com",
                "C_PHONE": f"510-555-{index % 10000:04d}",
                "C_ADDR_ID": index + 1,
                "C_DISCOUNT": round(self._rng.random() / 2, 2),
                "C_BALANCE": 0.0,
                "C_YTD_PMT": round(self._rng.random() * 500, 2),
                "C_SINCE": 1_200_000_000 + index,
                "C_LAST_VISIT": 1_300_000_000 + index,
            }

    def authors(self) -> Iterator[Dict[str, object]]:
        for index in range(self.config.authors):
            yield {
                "A_ID": index + 1,
                "A_FNAME": self._rng.choice(_FIRST_NAMES),
                "A_LNAME": self._rng.choice(_LAST_NAMES),
                "A_MNAME": "",
                "A_BIO": "wrote several well regarded books",
            }

    def items(self) -> Iterator[Dict[str, object]]:
        for index in range(self.config.items):
            words = self._rng.sample(_TITLE_WORDS, 3)
            yield {
                "I_ID": index + 1,
                "I_TITLE": " ".join(words),
                "I_A_ID": self._rng.randrange(self.config.authors) + 1,
                "I_PUB_DATE": 1_000_000_000 + self._rng.randrange(300_000_000),
                "I_PUBLISHER": "piql press",
                "I_SUBJECT": self._rng.choice(SUBJECTS),
                "I_DESC": "a fine book about " + words[0],
                "I_SRP": round(10 + self._rng.random() * 90, 2),
                "I_COST": round(5 + self._rng.random() * 80, 2),
                "I_STOCK": self._rng.randrange(10, 1000),
                "I_PAGE": self._rng.randrange(100, 900),
                "I_BACKING": self._rng.choice(["HARDBACK", "PAPERBACK", "AUDIO"]),
            }

    def orders_and_lines(self):
        """Yield (orders, order_lines, cc_xacts) row iterators as lists."""
        orders: List[Dict[str, object]] = []
        lines: List[Dict[str, object]] = []
        xacts: List[Dict[str, object]] = []
        order_id = 0
        for index in range(self.config.customers):
            uname = self.config.customer_uname(index)
            for sequence in range(ORDERS_PER_CUSTOMER):
                order_id += 1
                date_time = 1_310_000_000 + index * 100 + sequence
                total = 0.0
                for line_number in range(1, LINES_PER_ORDER + 1):
                    item_id = self._rng.randrange(self.config.items) + 1
                    quantity = self._rng.randrange(1, 4)
                    total += quantity * 20.0
                    lines.append(
                        {
                            "OL_O_ID": order_id,
                            "OL_ID": line_number,
                            "OL_I_ID": item_id,
                            "OL_QTY": quantity,
                            "OL_DISCOUNT": 0.0,
                            "OL_COMMENT": "",
                        }
                    )
                orders.append(
                    {
                        "O_ID": order_id,
                        "O_C_UNAME": uname,
                        "O_DATE_TIME": date_time,
                        "O_SUB_TOTAL": total,
                        "O_TAX": round(total * 0.0825, 2),
                        "O_TOTAL": round(total * 1.0825, 2),
                        "O_SHIP_TYPE": "GROUND",
                        "O_SHIP_DATE": date_time + 86_400,
                        "O_SHIP_ADDR_ID": index + 1,
                        "O_STATUS": "SHIPPED",
                    }
                )
                xacts.append(
                    {
                        "CX_O_ID": order_id,
                        "CX_TYPE": "VISA",
                        "CX_NUM": f"4111-{order_id % 10000:04d}",
                        "CX_NAME": uname,
                        "CX_EXPIRE": 1_400_000_000,
                        "CX_XACT_AMT": round(total * 1.0825, 2),
                        "CX_XACT_DATE": date_time,
                        "CX_CO_ID": 1,
                    }
                )
        return orders, lines, xacts

    def carts_and_lines(self):
        carts: List[Dict[str, object]] = []
        lines: List[Dict[str, object]] = []
        for index in range(self.config.customers):
            cart_id = index + 1
            carts.append(
                {
                    "SC_ID": cart_id,
                    "SC_TIME": 1_320_000_000 + index,
                    "SC_C_UNAME": self.config.customer_uname(index),
                }
            )
            item_ids = self._rng.sample(
                range(1, self.config.items + 1),
                min(CART_LINES_PER_CUSTOMER, self.config.items),
            )
            for item_id in item_ids:
                lines.append(
                    {
                        "SCL_SC_ID": cart_id,
                        "SCL_I_ID": item_id,
                        "SCL_QTY": self._rng.randrange(1, 4),
                    }
                )
        return carts, lines

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, db: PiqlDatabase) -> Dict[str, int]:
        """Bulk load the full dataset; returns per-table row counts."""
        counts = {
            "country": db.bulk_load("country", self.countries()),
            "address": db.bulk_load("address", self.addresses()),
            "customer": db.bulk_load("customer", self.customers()),
            "author": db.bulk_load("author", self.authors()),
            "item": db.bulk_load("item", self.items()),
        }
        orders, order_lines, xacts = self.orders_and_lines()
        counts["orders"] = db.bulk_load("orders", orders)
        counts["order_line"] = db.bulk_load("order_line", order_lines)
        counts["cc_xacts"] = db.bulk_load("cc_xacts", xacts)
        carts, cart_lines = self.carts_and_lines()
        counts["shopping_cart"] = db.bulk_load("shopping_cart", carts)
        counts["shopping_cart_line"] = db.bulk_load("shopping_cart_line", cart_lines)
        return counts

    # ------------------------------------------------------------------
    # Parameter pools for the workload
    # ------------------------------------------------------------------
    def customer_unames(self) -> List[str]:
        return [self.config.customer_uname(i) for i in range(self.config.customers)]

    def item_ids(self) -> List[int]:
        return list(range(1, self.config.items + 1))

    def order_ids(self) -> List[int]:
        return list(
            range(1, self.config.customers * ORDERS_PER_CUSTOMER + 1)
        )

    def cart_ids(self) -> List[int]:
        return list(range(1, self.config.customers + 1))

    def author_last_names(self) -> List[str]:
        return list(_LAST_NAMES)

    def title_words(self) -> List[str]:
        return list(_TITLE_WORDS)
