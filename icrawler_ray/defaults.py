"""Engine-wide constants.

Mirrors the semantics of the reference defaults
(/root/reference/icrawler/defaults.py:1-12): 3 request attempts with
random-exponential backoff base 1.2, and browser-like default headers.
"""

MAX_RETRIES = 3
BACKOFF_BASE = 1.2

ACCEPT_LANGUAGES = "zh-CN,zh;q=0.8,zh-TW;q=0.7,zh-HK;q=0.5,en-US;q=0.3,en;q=0.2"
USER_AGENT = (
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/134.0.0.0 Safari/537.36"
)
DEFAULT_HEADERS = {
    "Accept-Language": ACCEPT_LANGUAGES,
    "User-Agent": USER_AGENT,
}

# Engine knobs (scale-oriented; overridable per pipeline).
FETCH_BATCH_SIZE = 256             # rows per batch in fetch stages (binary-heavy)
DEFAULT_EXT = "jpg"                # reference ImageDownloader default_ext
IMAGE_EXT_WHITELIST = ("jpg", "jpeg", "png", "bmp", "tiff", "gif", "ppm", "pgm")
