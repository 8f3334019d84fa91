"""INI configuration for the pipeline.

Sections and keys follow the tool's config.ini layout, reduced to the keys
jpbib reads; missing keys take the documented defaults, unknown sections
and keys (the layout's database credentials and table names among them)
are reported but harmless.
Relative paths are resolved against the directory of the config file so
runs behave the same from any working directory.
"""

import configparser
import logging
import os
from dataclasses import dataclass

__all__ = ["Config", "ConfigError", "parse_config"]

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Unusable configuration; the message names section.key."""


@dataclass
class Config:
    # [db]: location of the embedded tabular store
    db_url: str = ""
    db_name: str = "jpbib"
    # [japnamesdb]
    use_unclassified_names: bool = False
    # [enamdict]
    enamdict_file: str = "./enamdict"
    # [harvester]
    files_path: str = "./files-harvester"
    min_id: int = 1
    max_id: int = 100000
    use_list_records: bool = True
    endpoint: str = ""
    id_prefix: str = ""
    # [dblp]
    dblp_xml_file: str = "./dblp.xml"
    # [bhtexport]
    bht_path: str = "./bht"
    show_common_coauthors: bool = True
    lev_threshold: int = 2
    match_threshold: float = 0.75
    # [log]
    log_path: str = "./log"
    # Directory the config file lives in; anchors the relative paths.
    base_dir: str = "."

    def resolve(self, path: str) -> str:
        return os.path.normpath(os.path.join(self.base_dir, path))

    @property
    def store_path(self) -> str:
        url = self.db_url
        if url.startswith("sqlite:///"):
            return self.resolve(url[len("sqlite:///"):])
        directory = self.resolve(url) if url else self.base_dir
        return os.path.join(directory, f"{self.db_name or 'jpbib'}.sqlite3")


_SCHEMA: dict[str, dict[str, tuple[str, type]]] = {
    "db": {
        "url": ("db_url", str),
        "db": ("db_name", str),
    },
    "japnamesdb": {"useunclassifiednames": ("use_unclassified_names", bool)},
    "enamdict": {"file": ("enamdict_file", str)},
    "harvester": {
        "filespath": ("files_path", str),
        "minid": ("min_id", int),
        "maxid": ("max_id", int),
        "uselistrecords": ("use_list_records", bool),
        "endpoint": ("endpoint", str),
        "idprefix": ("id_prefix", str),
    },
    "dblp": {"xmlfile": ("dblp_xml_file", str)},
    "bhtexport": {
        "path": ("bht_path", str),
        "showcommoncoauthors": ("show_common_coauthors", bool),
        "levthreshold": ("lev_threshold", int),
        "matchthreshold": ("match_threshold", float),
    },
    "log": {"path": ("log_path", str)},
}

def _convert(section: str, key: str, value: str, target: type):
    try:
        if target is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[value.strip().lower()]
        return target(value.strip())
    except (KeyError, ValueError):
        raise ConfigError(
            f"{section}.{key}: cannot read {value!r} as {target.__name__}"
        ) from None


def parse_config(path: str) -> Config:
    """Read a config file; missing keys default, bad values fail loudly."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc}") from exc

    config = Config(base_dir=os.path.dirname(os.path.abspath(path)))
    for section in parser.sections():
        known = _SCHEMA.get(section)
        if known is None:
            log.warning("unknown config section [%s]", section)
            continue
        for key, value in parser.items(section):
            if key not in known:
                log.warning("unknown config key %s.%s", section, key)
                continue
            attribute, target = known[key]
            setattr(config, attribute, _convert(section, key, value, target))

    if config.min_id > config.max_id:
        raise ConfigError(
            f"harvester.minid: {config.min_id} exceeds maxid {config.max_id}"
        )
    if not 0.0 <= config.match_threshold <= 1.0:
        raise ConfigError("bhtexport.matchthreshold: must lie within [0, 1]")
    if config.lev_threshold < 0:
        raise ConfigError("bhtexport.levthreshold: must be non-negative")
    return config
