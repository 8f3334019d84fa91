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
import urllib.parse
from dataclasses import dataclass, field, fields

__all__ = ["Config", "ConfigError", "parse_config"]

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Unusable configuration; the message names section.key."""


def _key(section: str, key: str, default):
    """A Config field read from ``key`` in ``[section]``."""
    return field(default=default, metadata={"ini": (section, key)})


@dataclass
class Config:
    # [db]: location of the embedded tabular store
    db_url: str = _key("db", "url", "")
    db_name: str = _key("db", "db", "jpbib")
    use_unclassified_names: bool = _key("japnamesdb", "useunclassifiednames", False)
    enamdict_file: str = _key("enamdict", "file", "./enamdict")
    files_path: str = _key("harvester", "filespath", "./files-harvester")
    min_id: int = _key("harvester", "minid", 1)
    max_id: int = _key("harvester", "maxid", 100000)
    use_list_records: bool = _key("harvester", "uselistrecords", True)
    endpoint: str = _key("harvester", "endpoint", "")
    id_prefix: str = _key("harvester", "idprefix", "")
    dblp_xml_file: str = _key("dblp", "xmlfile", "./dblp.xml")
    bht_path: str = _key("bhtexport", "path", "./bht")
    show_common_coauthors: bool = _key("bhtexport", "showcommoncoauthors", True)
    lev_threshold: int = _key("bhtexport", "levthreshold", 2)
    match_threshold: float = _key("bhtexport", "matchthreshold", 0.75)
    log_path: str = _key("log", "path", "./log")
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


# (section, key) -> the field it sets; the sections are the known ones.
_FIELDS = {f.metadata["ini"]: f for f in fields(Config) if "ini" in f.metadata}
_SECTIONS = {section for section, _ in _FIELDS}


def _convert(section: str, key: str, value: str, target: type):
    try:
        if target is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[value.strip().lower()]
        return target(value.strip())
    except (KeyError, ValueError):
        raise ConfigError(
            f"{section}.{key}: cannot read {value!r} as {target.__name__}"
        ) from None


def _is_http_url(text: str) -> bool:
    try:
        url = urllib.parse.urlsplit(text)
        url.port  # raises ValueError on a port that is no number in 0-65535
    except ValueError:  # also on an unclosed "[" around an IPv6 host
        return False
    return url.scheme in ("http", "https") and bool(url.hostname)


def parse_config(path: str) -> Config:
    """Read a config file; missing keys default, bad values fail loudly."""
    # No section header can hold a line break, so [DEFAULT] is a section
    # like any other, reported as unknown, and sets no key elsewhere.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        # A leading byte-order mark is not part of the first section header.
        with open(path, encoding="utf-8-sig") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        # Its message spans lines; the error is reported on one.
        message = " ".join(str(exc).splitlines())
        raise ConfigError(f"cannot parse config file {path!r}: {message}") from exc

    config = Config(base_dir=os.path.dirname(os.path.abspath(path)))
    for section in parser.sections():
        if section not in _SECTIONS:
            log.warning("unknown config section [%s]", section)
            continue
        for key, value in parser.items(section):
            declared = _FIELDS.get((section, key))
            if declared is None:
                log.warning("unknown config key %s.%s", section, key)
                continue
            setattr(config, declared.name, _convert(section, key, value, declared.type))

    if config.min_id > config.max_id:
        raise ConfigError(
            f"harvester.minid: {config.min_id} exceeds maxid {config.max_id}"
        )
    if not 0.0 <= config.match_threshold <= 1.0:
        raise ConfigError("bhtexport.matchthreshold: must lie within [0, 1]")
    if config.lev_threshold < 0:
        raise ConfigError("bhtexport.levthreshold: must be non-negative")
    if config.endpoint and not _is_http_url(config.endpoint):
        raise ConfigError("harvester.endpoint: must be an http(s) URL with a host")
    return config
