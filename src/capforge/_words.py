"""Word banks for the synthetic pool generator.  The shipped visual
vocabulary (``data/visual_vocab.txt``) is the concept words plus attribute
words (colours, materials, shapes) that no generated caption uses.

Four disjoint token families:

* concept words — visual object nouns; the things a record "depicts".
* filler words  — web-noise tokens that only raw captions use.
* glue words    — template scaffolding that only synthetic captions use.
* pseudo nouns  — deterministic "qa..." tokens extending the concept
  vocabulary past the real-word list.

Glue and filler/boilerplate vocabularies are deliberately disjoint so that
synthetic captions can never reproduce a raw-caption trigram: any 3-token
window of a template realization contains a glue token, and raw captions
contain none.
"""

from __future__ import annotations

CONCEPT_WORDS = [
    # object nouns, MS-COCO classes first
    "person", "bicycle", "car", "motorcycle", "airplane", "bus", "train",
    "truck", "boat", "bench", "bird", "cat", "dog", "horse", "sheep", "cow",
    "elephant", "bear", "zebra", "giraffe", "backpack", "umbrella", "handbag",
    "tie", "suitcase", "frisbee", "skis", "snowboard", "kite", "skateboard",
    "surfboard", "bottle", "cup", "fork", "knife", "spoon", "bowl", "banana",
    "apple", "sandwich", "orange", "broccoli", "carrot", "pizza", "donut",
    "cake", "chair", "couch", "bed", "table", "toilet", "tv", "laptop",
    "mouse", "remote", "keyboard", "phone", "microwave", "oven", "toaster",
    "sink", "refrigerator", "book", "clock", "vase", "scissors", "toothbrush",
    "glove", "bat", "ball", "racket", "glass", "plant", "sign", "hydrant",
    "meter", "drier", "teddy",
    # scenes, people, nature
    "tree", "flower", "grass", "sky", "cloud", "mountain", "beach", "ocean",
    "sea", "lake", "river", "road", "street", "bridge", "building", "house",
    "window", "door", "wall", "roof", "garden", "park", "field", "forest",
    "snow", "rain", "sun", "sunset", "city", "town", "village", "man",
    "woman", "boy", "girl", "child", "baby", "crowd", "hand", "face", "hair",
    "smile", "dress", "shirt", "jacket", "coat", "hat", "shoes", "boots",
    "jeans", "bag", "watch", "ring", "necklace", "bracelet", "sofa", "lamp",
    "mirror", "shelf", "desk", "rug", "carpet", "curtain", "pillow",
    "blanket", "bathroom", "bedroom", "kitchen", "plate", "pan", "pot",
    "tray", "basket", "box", "wheel", "engine", "bike", "van", "ship",
    "plane", "helicopter", "rocket", "guitar", "piano", "drum", "violin",
    "camera", "painting", "statue", "fountain", "tower", "castle", "church",
    "temple", "market", "store", "restaurant", "cafe", "pool", "playground",
    "stadium", "court", "fence", "gate", "stairs", "balcony", "chimney",
    "barn", "farm", "tractor", "leaf", "branch", "rock", "stone", "sand",
    "wave", "fish", "shark", "whale", "dolphin", "turtle", "frog", "snake",
    "lizard", "rabbit", "squirrel", "fox", "wolf", "lion", "tiger", "monkey",
    "panda", "penguin", "owl", "eagle", "duck", "chicken", "pig", "goat",
    "deer", "moose", "butterfly", "bee", "spider", "ant", "candle", "ribbon",
    "balloon", "gift", "toy", "doll", "robot", "sword", "shield", "helmet",
    "crown", "flag", "map", "globe", "telescope", "microscope", "wheelchair",
    "stroller", "ladder", "hammer", "drill", "saw", "wrench", "screwdriver",
    "nail", "rope", "chain", "lock", "key", "coin", "wallet", "purse",
    "glasses", "sunglasses", "scarf", "gloves", "mittens", "sweater",
    "hoodie", "uniform", "costume", "mask", "wig", "mustache", "beard",
    "lighthouse", "windmill", "waterfall", "canyon", "desert", "island",
    "harbor", "pier", "dock", "tent", "campfire", "backyard", "porch",
    "driveway", "garage", "mailbox", "bucket", "barrel", "crate", "pallet",
    "sculpture", "mural", "poster", "banner", "trophy", "medal", "kayak",
    "canoe", "sailboat", "yacht", "ferry", "submarine", "scooter", "sled",
    "carriage", "wagon", "trailer", "crane", "bulldozer", "excavator",
    "firetruck", "ambulance", "taxi", "jeep", "limousine", "parrot",
    "flamingo", "peacock", "swan", "goose", "crab", "lobster", "octopus",
    "jellyfish", "starfish", "seal", "walrus", "otter", "beaver", "hedgehog",
    "raccoon", "skunk", "hamster", "mushroom", "cactus", "fern", "moss", "vine",
    "bamboo", "palm", "willow", "oak", "pine", "maple", "tulip", "rose",
    "daisy", "sunflower", "orchid", "lily",
]

FILLER_WORDS = [
    "best", "free", "sale", "online", "shop", "buy", "price", "cheap",
    "premium", "quality", "original", "vintage", "classic", "style",
    "fashion", "design", "custom", "deluxe", "limited", "edition", "series",
    "collection", "kit", "size", "mini", "pro", "plus", "ultra", "super",
    "trending", "popular", "featured", "exclusive", "handmade",
    "personalized", "printable", "digital", "hd", "download", "stock",
    "item", "product", "brand", "official", "genuine", "authentic",
    "wholesale", "discount", "offer", "deal", "2014", "2015", "2016", "2017",
    "2018", "2019", "2020", "2021", "page", "home", "info", "click", "here",
    "more", "details", "review", "reviews", "gallery", "file", "untitled",
    "copy", "final", "version", "update", "blog", "post", "news", "shipping",
    "delivery", "order", "cart", "checkout", "account", "login", "search",
    "results", "category", "tags", "archive", "comments", "share", "like",
    "follow", "subscribe", "newsletter", "contact", "about", "terms",
    "privacy", "policy", "tips", "guide", "tutorial", "ideas", "inspiration",
    "trends", "catalog", "promo", "code", "coupon", "voucher", "bundle",
    "pack", "bulk", "oem", "usa", "europe", "global", "express", "standard",
    "basic", "advanced", "professional", "instant", "daily", "weekly",
    "monthly", "annual", "seasonal", "birthday", "anniversary", "new",
]

BOILERPLATE_CAPTIONS = [
    "image not found",
    "no caption available",
    "click here for more details",
    "untitled img 0042",
    "new arrivals shop now",
    "image coming soon",
    "dsc 1001 jpg",
    "error loading page",
]

# templates for synthetic captions; None marks a concept slot.  Consecutive
# slots are separated by at least two glue tokens so every trigram window of
# a realization contains a glue word.
SYN_TEMPLATES: list[tuple[str | None, ...]] = [
    ("a", "photo", "of", "a", None),
    ("a", "close", "up", "of", "a", None),
    ("a", None, "sitting", "on", "a", None),
    ("a", None, "standing", "next", "to", "a", None),
    ("a", None, "with", "a", None),
    ("there", "is", "a", None, "near", "a", None),
    ("a", None, "in", "front", "of", "a", None),
    ("a", "group", "of", None, "in", "the", None),
    ("a", None, "and", "a", None, "on", "a", None),
    ("a", "picture", "of", "a", None),
    ("a", None, "on", "top", "of", "a", None),
    ("two", None, "sitting", "beside", "a", None),
    ("a", None, "against", "a", None, "background"),
    ("a", "shot", "of", "a", None, "during", "the", "day"),
    ("several", None, "in", "a", None),
    ("a", None, "under", "a", None),
    ("the", None, "in", "the", "middle", "of", "a", None),
    ("a", "couple", "of", None, "near", "the", None),
    ("a", None, "resting", "on", "the", None),
    ("a", "pair", "of", None, "with", "a", None),
    ("a", None, "over", "the", None),
    ("some", None, "in", "the", "background"),
    ("a", None, "holding", "a", None),
    ("a", None, "at", "a", None),
]

GLUE_WORDS = sorted(
    {tok for tpl in SYN_TEMPLATES for tok in tpl if tok is not None}
)

_SYLLABLES = [
    "ba", "be", "bi", "bo", "bu", "da", "de", "di", "do", "du", "ka", "ke",
    "ki", "ko", "ku", "ma", "me", "mi", "mo", "mu", "na", "ne", "ni", "no",
    "nu", "ra", "re", "ri", "ro", "ru", "sa", "se", "si", "so", "su", "ta",
    "te", "ti", "to", "tu",
]


def concept_word(index: int) -> str:
    """Deterministic concept token for a vocabulary index."""
    if index < len(CONCEPT_WORDS):
        return CONCEPT_WORDS[index]
    j = index - len(CONCEPT_WORDS)
    s = len(_SYLLABLES)
    return "qa" + _SYLLABLES[(j // (s * s)) % s] + _SYLLABLES[(j // s) % s] + _SYLLABLES[j % s]
