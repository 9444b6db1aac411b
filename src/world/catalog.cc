#include "world/catalog.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <stdexcept>

#include "net/allocator.h"
#include "util/hash.h"
#include "util/strings.h"

namespace lockdown::world {

const char* ToString(Category c) noexcept {
  switch (c) {
    case Category::kVideoConferencing: return "video-conferencing";
    case Category::kSocialMedia: return "social-media";
    case Category::kMessaging: return "messaging";
    case Category::kStreaming: return "streaming";
    case Category::kMusic: return "music";
    case Category::kGamingPc: return "gaming-pc";
    case Category::kGamingConsole: return "gaming-console";
    case Category::kEducation: return "education";
    case Category::kWeb: return "web";
    case Category::kNews: return "news";
    case Category::kShopping: return "shopping";
    case Category::kSearch: return "search";
    case Category::kEmailCloud: return "email-cloud";
    case Category::kIotBackend: return "iot-backend";
    case Category::kCdn: return "cdn";
    case Category::kExcluded: return "excluded";
  }
  return "???";
}

namespace {

// Serving locations (approximate city coordinates).
constexpr GeoPoint kSanDiego{32.72, -117.16};  // CDN edges near campus
constexpr GeoPoint kUsWest{37.42, -122.08};
constexpr GeoPoint kUsEast{39.04, -77.49};
constexpr GeoPoint kUsCentral{41.26, -95.86};
constexpr GeoPoint kBeijing{39.90, 116.40};
constexpr GeoPoint kShanghai{31.23, 121.47};
constexpr GeoPoint kShenzhen{22.54, 114.06};
constexpr GeoPoint kHangzhou{30.27, 120.15};
constexpr GeoPoint kSeoul{37.57, 126.98};
constexpr GeoPoint kTokyo{35.68, 139.69};
constexpr GeoPoint kMumbai{19.08, 72.88};
constexpr GeoPoint kSingapore{1.35, 103.82};
constexpr GeoPoint kLondon{51.51, -0.13};
constexpr GeoPoint kFrankfurt{50.11, 8.68};
constexpr GeoPoint kParis{48.86, 2.35};
constexpr GeoPoint kSaoPaulo{-23.55, -46.63};
constexpr GeoPoint kMexicoCity{19.43, -99.13};
constexpr GeoPoint kToronto{43.65, -79.38};
constexpr GeoPoint kMoscow{55.76, 37.62};
constexpr GeoPoint kDoha{25.29, 51.53};
constexpr GeoPoint kHanoi{21.03, 105.85};

std::vector<ServiceSpec> BuildDefaultSpecs() {
  std::vector<ServiceSpec> s;
  auto add = [&s](ServiceSpec spec) { s.push_back(std::move(spec)); };

  // --- The paper's named applications -------------------------------------
  // Zoom signalling + web (matched by domain, §5.1).
  add({.name = "zoom",
       .category = Category::kVideoConferencing,
       .country = "US",
       .location = kUsWest,
       .hosts = {"zoom.us", "us04web.zoom.us", "zoomcdn.zoom.us"}});
  // Zoom media relays: reached by raw IP from the client's media stack, so
  // they never appear in DNS logs — exactly why the paper had to match
  // against Zoom's published IP list (§5.1).
  add({.name = "zoom-media",
       .category = Category::kVideoConferencing,
       .country = "US",
       .location = kUsWest,
       .hosts = {},
       .dns_less = true,
       .prefix_len = 20});
  // A retired relay block that was removed from Zoom's support page during
  // the study; recovered via the Wayback Machine in the paper (§5.1).
  add({.name = "zoom-media-legacy",
       .category = Category::kVideoConferencing,
       .country = "US",
       .location = kUsWest,
       .hosts = {},
       .dns_less = true});

  // Facebook and Instagram share delivery domains (facebook.net, fbcdn.net),
  // which forces the paper's session-disambiguation heuristic (§5.2).
  add({.name = "facebook",
       .category = Category::kSocialMedia,
       .country = "US",
       .location = kUsEast,
       .hosts = {"facebook.com", "facebook.net", "fbcdn.net", "edge-mqtt.facebook.com"}});
  add({.name = "instagram",
       .category = Category::kSocialMedia,
       .country = "US",
       .location = kUsEast,
       .hosts = {"instagram.com", "cdninstagram.com"}});
  add({.name = "tiktok",
       .category = Category::kSocialMedia,
       .country = "US",  // US edge for US users; ByteDance-owned
       .location = kUsWest,
       .hosts = {"tiktok.com", "tiktokv.com", "tiktokcdn.com", "muscdn.com"}});
  add({.name = "steam",
       .category = Category::kGamingPc,
       .country = "US",
       .location = kUsWest,
       // The support-whitelist domains the paper built its signature from (§5.3.1).
       .hosts = {"steampowered.com", "steamcommunity.com", "steamcontent.com",
                 "steamusercontent.com", "steamstatic.com"}});
  // Nintendo, split gameplay vs. non-gameplay exactly as the paper's
  // 90DNS/SwitchBlocker-derived lists do (§5.3.2).
  add({.name = "nintendo-gameplay",
       .category = Category::kGamingConsole,
       .country = "US",
       .location = kUsWest,
       .hosts = {"npln.srv.nintendo.net", "p2prel.srv.nintendo.net",
                 "mm.p2p.srv.nintendo.net", "nncs1.app.nintendowifi.net"}});
  add({.name = "nintendo-services",
       .category = Category::kGamingConsole,
       .country = "US",
       .location = kUsWest,
       .hosts = {"atum.hac.lp1.d4c.nintendo.net", "sun.hac.lp1.d4c.nintendo.net",
                 "accounts.nintendo.com", "ctest.cdn.nintendo.net",
                 "receive-lp1.dg.srv.nintendo.net", "conntest.nintendowifi.net"}});

  // --- Domestic social / messaging ----------------------------------------
  add({.name = "snapchat", .category = Category::kSocialMedia, .country = "US",
       .location = kUsWest, .hosts = {"snapchat.com", "sc-cdn.net"}});
  add({.name = "twitter", .category = Category::kSocialMedia, .country = "US",
       .location = kUsWest, .hosts = {"twitter.com", "twimg.com"}});
  add({.name = "reddit", .category = Category::kSocialMedia, .country = "US",
       .location = kUsWest, .hosts = {"reddit.com", "redd.it", "redditmedia.com"}});
  add({.name = "pinterest", .category = Category::kSocialMedia, .country = "US",
       .location = kUsWest, .hosts = {"pinterest.com", "pinimg.com"}});
  add({.name = "linkedin", .category = Category::kSocialMedia, .country = "US",
       .location = kUsWest, .hosts = {"linkedin.com", "licdn.com"}});
  add({.name = "discord", .category = Category::kMessaging, .country = "US",
       .location = kUsWest, .hosts = {"discord.com", "discord.gg", "discordapp.com"}});
  add({.name = "whatsapp", .category = Category::kMessaging, .country = "US",
       .location = kUsEast, .hosts = {"whatsapp.com", "whatsapp.net"}});
  add({.name = "telegram", .category = Category::kMessaging, .country = "NL",
       .location = {52.37, 4.90}, .hosts = {"telegram.org", "t.me"}});
  add({.name = "signal", .category = Category::kMessaging, .country = "US",
       .location = kUsEast, .hosts = {"signal.org", "whispersystems.org"}});

  // --- Streaming / music ----------------------------------------------------
  add({.name = "netflix", .category = Category::kStreaming, .country = "US",
       .location = kUsWest, .hosts = {"netflix.com", "nflxvideo.net", "nflximg.net"},
       .prefix_len = 20});
  add({.name = "youtube", .category = Category::kStreaming, .country = "US",
       .location = kUsWest, .hosts = {"youtube.com", "googlevideo.com", "ytimg.com"},
       .prefix_len = 20});
  add({.name = "hulu", .category = Category::kStreaming, .country = "US",
       .location = kUsWest, .hosts = {"hulu.com", "hulustream.com"}});
  add({.name = "disneyplus", .category = Category::kStreaming, .country = "US",
       .location = kUsWest, .hosts = {"disneyplus.com", "dssott.com"}});
  add({.name = "hbo", .category = Category::kStreaming, .country = "US",
       .location = kUsEast, .hosts = {"hbomax.com", "hbo.com"}});
  add({.name = "crunchyroll", .category = Category::kStreaming, .country = "US",
       .location = kUsWest, .hosts = {"crunchyroll.com", "vrv.co"}});
  add({.name = "spotify", .category = Category::kMusic, .country = "US",
       .location = kUsEast, .hosts = {"spotify.com", "scdn.co", "spotifycdn.com"}});
  add({.name = "soundcloud", .category = Category::kMusic, .country = "DE",
       .location = kFrankfurt, .hosts = {"soundcloud.com", "sndcdn.com"}});

  // --- PC / console gaming --------------------------------------------------
  add({.name = "epicgames", .category = Category::kGamingPc, .country = "US",
       .location = kUsEast, .hosts = {"epicgames.com", "epicgames.dev", "unrealengine.com"}});
  add({.name = "blizzard", .category = Category::kGamingPc, .country = "US",
       .location = kUsWest, .hosts = {"blizzard.com", "battle.net", "blzstatic.com"}});
  add({.name = "minecraft", .category = Category::kGamingPc, .country = "US",
       .location = kUsEast, .hosts = {"minecraft.net", "mojang.com"}});
  add({.name = "playstation", .category = Category::kGamingConsole, .country = "US",
       .location = kUsWest, .hosts = {"playstation.com", "playstation.net", "sonyentertainmentnetwork.com"}});

  // --- Education / work -----------------------------------------------------
  add({.name = "canvas", .category = Category::kEducation, .country = "US",
       .location = kUsCentral, .hosts = {"instructure.com", "canvas-user-content.com"}});
  add({.name = "gradescope", .category = Category::kEducation, .country = "US",
       .location = kUsWest, .hosts = {"gradescope.com"}});
  add({.name = "piazza", .category = Category::kEducation, .country = "US",
       .location = kUsWest, .hosts = {"piazza.com"}});
  add({.name = "google-workspace", .category = Category::kEducation, .country = "US",
       .location = kUsWest, .hosts = {"docs.google.com", "drive.google.com", "classroom.google.com"}});
  add({.name = "gmail", .category = Category::kEmailCloud, .country = "US",
       .location = kUsWest, .hosts = {"mail.google.com", "gmail.com"}});
  add({.name = "dropbox", .category = Category::kEmailCloud, .country = "US",
       .location = kUsWest, .hosts = {"dropbox.com", "dropboxstatic.com"}});
  add({.name = "box", .category = Category::kEmailCloud, .country = "US",
       .location = kUsWest, .hosts = {"box.com", "boxcdn.net"}});
  add({.name = "github", .category = Category::kWeb, .country = "US",
       .location = kUsWest, .hosts = {"github.com", "githubusercontent.com"}});
  add({.name = "stackoverflow", .category = Category::kWeb, .country = "US",
       .location = kUsEast, .hosts = {"stackoverflow.com", "sstatic.net"}});
  add({.name = "wikipedia", .category = Category::kWeb, .country = "US",
       .location = kUsEast, .hosts = {"wikipedia.org", "wikimedia.org"}});
  add({.name = "google-search", .category = Category::kSearch, .country = "US",
       .location = kUsWest, .hosts = {"google.com", "gstatic.com"}});
  add({.name = "duckduckgo", .category = Category::kSearch, .country = "US",
       .location = kUsEast, .hosts = {"duckduckgo.com"}});

  // --- News / misc domestic web ---------------------------------------------
  add({.name = "nytimes", .category = Category::kNews, .country = "US",
       .location = kUsEast, .hosts = {"nytimes.com", "nyt.com"}});
  add({.name = "cnn", .category = Category::kNews, .country = "US",
       .location = kUsEast, .hosts = {"cnn.com", "cnn.io"}});
  add({.name = "washingtonpost", .category = Category::kNews, .country = "US",
       .location = kUsEast, .hosts = {"washingtonpost.com"}});
  add({.name = "weather", .category = Category::kWeb, .country = "US",
       .location = kUsEast, .hosts = {"weather.com", "wunderground.com"}});
  add({.name = "yelp", .category = Category::kWeb, .country = "US",
       .location = kUsWest, .hosts = {"yelp.com", "yelpcdn.com"}});
  add({.name = "zillow", .category = Category::kWeb, .country = "US",
       .location = kUsWest, .hosts = {"zillow.com"}});
  add({.name = "ebay", .category = Category::kShopping, .country = "US",
       .location = kUsWest, .hosts = {"ebay.com", "ebaystatic.com"}});
  add({.name = "etsy", .category = Category::kShopping, .country = "US",
       .location = kUsEast, .hosts = {"etsy.com", "etsystatic.com"}});
  add({.name = "walmart", .category = Category::kShopping, .country = "US",
       .location = kUsCentral, .hosts = {"walmart.com", "walmartimages.com"}});
  add({.name = "instacart", .category = Category::kShopping, .country = "US",
       .location = kUsWest, .hosts = {"instacart.com"}});
  add({.name = "doordash", .category = Category::kShopping, .country = "US",
       .location = kUsWest, .hosts = {"doordash.com"}});

  // --- IoT backends (device heartbeats / streaming sticks) ------------------
  add({.name = "roku", .category = Category::kIotBackend, .country = "US",
       .location = kUsWest, .hosts = {"roku.com", "rokucdn.com", "logs.roku.com"}});
  add({.name = "samsung-tv", .category = Category::kIotBackend, .country = "US",
       .location = kUsEast, .hosts = {"samsungcloudsolution.com", "samsungotn.net", "samsungqbe.com"}});
  add({.name = "lg-tv", .category = Category::kIotBackend, .country = "US",
       .location = kUsEast, .hosts = {"lgtvsdp.com", "lgappstv.com"}});
  add({.name = "tplink", .category = Category::kIotBackend, .country = "US",
       .location = kUsWest, .hosts = {"tplinkcloud.com", "tplinkra.com"}});
  add({.name = "wyze", .category = Category::kIotBackend, .country = "US",
       .location = kUsWest, .hosts = {"wyzecam.com", "wyze.com"}});
  add({.name = "sonos", .category = Category::kIotBackend, .country = "US",
       .location = kUsEast, .hosts = {"sonos.com", "ws.sonos.com"}});
  add({.name = "hue", .category = Category::kIotBackend, .country = "NL",
       .location = {52.37, 4.90}, .hosts = {"meethue.com", "dcp.cpp.philips.com"}});
  add({.name = "tuya", .category = Category::kIotBackend, .country = "US",
       .location = kUsWest, .hosts = {"tuyaus.com", "tuyacn.com"}});
  add({.name = "espressif", .category = Category::kIotBackend, .country = "US",
       .location = kUsWest, .hosts = {"espressif.cn", "otaupdate.espressif.com"}});

  // --- Foreign services (international-student traffic) ---------------------
  // China
  add({.name = "wechat", .category = Category::kMessaging, .country = "CN",
       .location = kShenzhen, .hosts = {"weixin.qq.com", "wechat.com", "wx.qq.com"}});
  add({.name = "qq", .category = Category::kMessaging, .country = "CN",
       .location = kShenzhen, .hosts = {"qq.com", "gtimg.com", "qpic.cn"}});
  add({.name = "bilibili", .category = Category::kStreaming, .country = "CN",
       .location = kShanghai, .hosts = {"bilibili.com", "bilivideo.com", "hdslb.com"},
       .prefix_len = 20});
  add({.name = "iqiyi", .category = Category::kStreaming, .country = "CN",
       .location = kBeijing, .hosts = {"iqiyi.com", "qiyipic.com"}});
  add({.name = "youku", .category = Category::kStreaming, .country = "CN",
       .location = kHangzhou, .hosts = {"youku.com", "ykimg.com"}});
  add({.name = "baidu", .category = Category::kSearch, .country = "CN",
       .location = kBeijing, .hosts = {"baidu.com", "bdstatic.com"}});
  add({.name = "weibo", .category = Category::kSocialMedia, .country = "CN",
       .location = kBeijing, .hosts = {"weibo.com", "weibo.cn", "sinaimg.cn"}});
  add({.name = "douyin", .category = Category::kSocialMedia, .country = "CN",
       .location = kBeijing, .hosts = {"douyin.com", "douyinpic.com", "amemv.com"}});
  add({.name = "zhihu", .category = Category::kSocialMedia, .country = "CN",
       .location = kBeijing, .hosts = {"zhihu.com", "zhimg.com"}});
  add({.name = "taobao", .category = Category::kShopping, .country = "CN",
       .location = kHangzhou, .hosts = {"taobao.com", "alicdn.com", "tmall.com"}});
  add({.name = "jd", .category = Category::kShopping, .country = "CN",
       .location = kBeijing, .hosts = {"jd.com", "360buyimg.com"}});
  add({.name = "netease", .category = Category::kWeb, .country = "CN",
       .location = kHangzhou, .hosts = {"163.com", "126.net", "netease.com"}});
  add({.name = "tencent-games", .category = Category::kGamingPc, .country = "CN",
       .location = kShenzhen, .hosts = {"tencentgames.com", "gcloud.qq.com"}});
  // Korea
  add({.name = "naver", .category = Category::kSearch, .country = "KR",
       .location = kSeoul, .hosts = {"naver.com", "pstatic.net"}});
  add({.name = "kakao", .category = Category::kMessaging, .country = "KR",
       .location = kSeoul, .hosts = {"kakao.com", "kakaocdn.net"}});
  add({.name = "daum", .category = Category::kWeb, .country = "KR",
       .location = kSeoul, .hosts = {"daum.net", "daumcdn.net"}});
  // Japan
  add({.name = "line", .category = Category::kMessaging, .country = "JP",
       .location = kTokyo, .hosts = {"line.me", "line-scdn.net"}});
  add({.name = "nicovideo", .category = Category::kStreaming, .country = "JP",
       .location = kTokyo, .hosts = {"nicovideo.jp", "nimg.jp"}});
  add({.name = "rakuten", .category = Category::kShopping, .country = "JP",
       .location = kTokyo, .hosts = {"rakuten.co.jp", "r10s.jp"}});
  add({.name = "yahoo-japan", .category = Category::kWeb, .country = "JP",
       .location = kTokyo, .hosts = {"yahoo.co.jp", "yimg.jp"}});
  // India
  add({.name = "hotstar", .category = Category::kStreaming, .country = "IN",
       .location = kMumbai, .hosts = {"hotstar.com", "hotstarext.com"}});
  add({.name = "flipkart", .category = Category::kShopping, .country = "IN",
       .location = kMumbai, .hosts = {"flipkart.com", "flixcart.com"}});
  add({.name = "indiatimes", .category = Category::kNews, .country = "IN",
       .location = kMumbai, .hosts = {"indiatimes.com", "timesofindia.com"}});
  // Europe / rest of world
  add({.name = "bbc", .category = Category::kNews, .country = "GB",
       .location = kLondon, .hosts = {"bbc.co.uk", "bbci.co.uk", "bbc.com"}});
  add({.name = "spiegel", .category = Category::kNews, .country = "DE",
       .location = kFrankfurt, .hosts = {"spiegel.de"}});
  add({.name = "lemonde", .category = Category::kNews, .country = "FR",
       .location = kParis, .hosts = {"lemonde.fr"}});
  add({.name = "vk", .category = Category::kSocialMedia, .country = "RU",
       .location = kMoscow, .hosts = {"vk.com", "userapi.com"}});
  add({.name = "yandex", .category = Category::kSearch, .country = "RU",
       .location = kMoscow, .hosts = {"yandex.ru", "yastatic.net"}});
  add({.name = "globo", .category = Category::kNews, .country = "BR",
       .location = kSaoPaulo, .hosts = {"globo.com", "glbimg.com"}});
  add({.name = "televisa", .category = Category::kNews, .country = "MX",
       .location = kMexicoCity, .hosts = {"televisa.com"}});
  add({.name = "shopee", .category = Category::kShopping, .country = "SG",
       .location = kSingapore, .hosts = {"shopee.sg", "shopeemobile.com"}});
  add({.name = "zalo", .category = Category::kMessaging, .country = "VN",
       .location = kHanoi, .hosts = {"zalo.me", "zadn.vn"}});
  add({.name = "aljazeera", .category = Category::kNews, .country = "QA",
       .location = kDoha, .hosts = {"aljazeera.com", "aljazeera.net"}});
  add({.name = "cbc", .category = Category::kNews, .country = "CA",
       .location = kToronto, .hosts = {"cbc.ca"}});

  // --- CDNs: excluded from the geolocation midpoint (§4.2) ------------------
  // CDN edges serve from near the user, so their location reflects the
  // device, not the visited site. Located at San Diego to model that.
  add({.name = "akamai", .category = Category::kCdn, .country = "US",
       .location = kSanDiego, .hosts = {"akamaized.net", "akamaihd.net", "akamai.net"},
       .is_cdn = true, .prefix_len = 20});
  add({.name = "aws", .category = Category::kCdn, .country = "US",
       .location = kSanDiego, .hosts = {"amazonaws.com", "awsstatic.com"},
       .is_cdn = true, .prefix_len = 20});
  add({.name = "cloudfront", .category = Category::kCdn, .country = "US",
       .location = kSanDiego, .hosts = {"cloudfront.net"},
       .is_cdn = true, .prefix_len = 20});
  add({.name = "optimizely", .category = Category::kCdn, .country = "US",
       .location = kSanDiego, .hosts = {"optimizely.com", "optimizelyapis.com"},
       .is_cdn = true});

  // --- Networks excluded from the tap (§3) -----------------------------------
  // "excluded networks include parts of UC San Diego, Google Cloud, Amazon,
  //  Microsoft Azure, Riot Games, Twitch, Qualys, and Apple."
  add({.name = "ucsd-internal", .category = Category::kExcluded, .country = "US",
       .location = kSanDiego, .hosts = {"ucsd.edu", "ucsd.cloud"},
       .tap_excluded = true});
  add({.name = "google-cloud", .category = Category::kExcluded, .country = "US",
       .location = kUsWest, .hosts = {"googleusercontent.com", "cloud.google.com", "gcp.gvt2.com"},
       .tap_excluded = true, .prefix_len = 20});
  add({.name = "amazon-retail", .category = Category::kExcluded, .country = "US",
       .location = kUsWest, .hosts = {"amazon.com", "media-amazon.com", "primevideo.com"},
       .tap_excluded = true, .prefix_len = 20});
  add({.name = "azure", .category = Category::kExcluded, .country = "US",
       .location = kUsCentral, .hosts = {"azure.com", "microsoft.com", "windowsupdate.com",
                                         "office365.com", "xboxlive.com"},
       .tap_excluded = true, .prefix_len = 20});
  add({.name = "riot", .category = Category::kExcluded, .country = "US",
       .location = kUsWest, .hosts = {"riotgames.com", "leagueoflegends.com"},
       .tap_excluded = true});
  add({.name = "twitch", .category = Category::kExcluded, .country = "US",
       .location = kUsWest, .hosts = {"twitch.tv", "ttvnw.net", "jtvnw.net"},
       .tap_excluded = true});
  add({.name = "qualys", .category = Category::kExcluded, .country = "US",
       .location = kUsWest, .hosts = {"qualys.com"}, .tap_excluded = true});
  add({.name = "apple", .category = Category::kExcluded, .country = "US",
       .location = kUsWest, .hosts = {"apple.com", "icloud.com", "mzstatic.com",
                                      "apple-dns.net", "aaplimg.com"},
       .tap_excluded = true, .prefix_len = 20});

  // --- Long tail of small web sites -----------------------------------------
  // Campus browsing reaches far more than the name-brand services above; the
  // long tail is what makes the paper's "34% more distinct sites" (§4.1)
  // measurable rather than saturating after a week of browsing.
  struct TailRegion {
    const char* cc;
    GeoPoint loc;
    int count;
  };
  static constexpr TailRegion kTailRegions[] = {
      {"US", kUsCentral, 120}, {"CN", kShanghai, 14}, {"KR", kSeoul, 6},
      {"JP", kTokyo, 6},       {"IN", kMumbai, 6},    {"GB", kLondon, 4},
      {"DE", kFrankfurt, 4},   {"FR", kParis, 3},     {"RU", kMoscow, 3},
      {"BR", kSaoPaulo, 3},    {"MX", kMexicoCity, 3}, {"SG", kSingapore, 2},
      {"VN", kHanoi, 2},       {"QA", kDoha, 2},      {"CA", kToronto, 2},
  };
  // Generated names need stable storage: ServiceSpec holds string_views.
  static std::vector<std::string> tail_storage;
  if (tail_storage.empty()) {
    std::size_t total = 0;
    for (const TailRegion& r : kTailRegions) total += r.count;
    tail_storage.reserve(total * 2);  // never reallocates afterwards
    for (const TailRegion& r : kTailRegions) {
      for (int i = 0; i < r.count; ++i) {
        char name[32];
        char host[48];
        std::snprintf(name, sizeof(name), "web-%c%c-%03d",
                      std::tolower(r.cc[0]), std::tolower(r.cc[1]), i);
        std::snprintf(host, sizeof(host), "www.%c%c-site-%03d.net",
                      std::tolower(r.cc[0]), std::tolower(r.cc[1]), i);
        tail_storage.emplace_back(name);
        tail_storage.emplace_back(host);
      }
    }
  }
  std::size_t slot = 0;
  for (const TailRegion& r : kTailRegions) {
    for (int i = 0; i < r.count; ++i) {
      const std::string_view name = tail_storage[slot];
      const std::string_view host = tail_storage[slot + 1];
      slot += 2;
      add({.name = name,
           .category = Category::kWeb,
           .country = r.cc,
           .location = r.loc,
           .hosts = {host},
           .prefix_len = 26});
    }
  }

  return s;
}

const std::vector<ServiceSpec>& DefaultSpecsStorage() {
  static const std::vector<ServiceSpec> specs = BuildDefaultSpecs();
  return specs;
}

}  // namespace

std::span<const ServiceSpec> DefaultServiceSpecs() { return DefaultSpecsStorage(); }

ServiceCatalog::ServiceCatalog(std::span<const ServiceSpec> specs,
                               net::Cidr super_block) {
  if (specs.size() >= kInvalidService) {
    throw std::invalid_argument("ServiceCatalog: too many services");
  }
  net::SubnetCarver carver(super_block);
  services_.reserve(specs.size());
  for (const ServiceSpec& spec : specs) {
    Service svc;
    svc.name = std::string(spec.name);
    svc.category = spec.category;
    svc.country = std::string(spec.country);
    svc.location = spec.location;
    for (std::string_view h : spec.hosts) svc.hosts.emplace_back(h);
    svc.is_cdn = spec.is_cdn;
    svc.tap_excluded = spec.tap_excluded;
    svc.dns_less = spec.dns_less;
    svc.block = carver.Carve(spec.prefix_len);
    services_.push_back(std::move(svc));
  }
  for (ServiceId id = 0; id < services_.size(); ++id) {
    const Service& svc = services_[id];
    if (!by_name_.emplace(svc.name, id).second) {
      throw std::invalid_argument("ServiceCatalog: duplicate name " + svc.name);
    }
    for (const std::string& host : svc.hosts) {
      if (!by_host_suffix_.emplace(host, id).second) {
        throw std::invalid_argument("ServiceCatalog: duplicate host " + host);
      }
    }
  }
  if (services_.empty()) return;
  // The carved span runs from the first block's base to the end of the last
  // one, and the smallest block sets the cell size.
  std::uint64_t lo = UINT64_MAX;
  std::uint64_t hi = 0;
  int max_prefix = 0;
  for (const Service& svc : services_) {
    lo = std::min<std::uint64_t>(lo, svc.block.base().value());
    hi = std::max(hi, svc.block.base().value() + svc.block.size());
    max_prefix = std::max(max_prefix, svc.block.prefix_len());
  }
  span_base_ = static_cast<std::uint32_t>(lo);
  cell_shift_ = 32 - max_prefix;
  owner_.assign(static_cast<std::size_t>((hi - lo) >> cell_shift_), kInvalidService);
  for (ServiceId id = 0; id < services_.size(); ++id) {
    const net::Cidr& block = services_[id].block;
    const std::uint64_t first = (block.base().value() - lo) >> cell_shift_;
    const std::uint64_t cells = block.size() >> cell_shift_;
    std::fill_n(owner_.begin() + static_cast<std::ptrdiff_t>(first),
                static_cast<std::ptrdiff_t>(cells), id);
  }
}

const ServiceCatalog& ServiceCatalog::Default() {
  static const ServiceCatalog catalog{DefaultServiceSpecs()};
  return catalog;
}

std::optional<ServiceId> ServiceCatalog::FindByName(std::string_view name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

std::optional<ServiceId> ServiceCatalog::FindByHost(std::string_view host) const {
  // Walk suffixes at label boundaries: "a.b.zoom.us" tries itself, then
  // "b.zoom.us", then "zoom.us", then "us".
  std::string_view rest = host;
  for (;;) {
    const auto it = by_host_suffix_.find(rest);
    if (it != by_host_suffix_.end()) return it->second;
    const auto dot = rest.find('.');
    if (dot == std::string_view::npos) return std::nullopt;
    rest = rest.substr(dot + 1);
  }
}

std::vector<net::Ipv4Address> ServiceCatalog::ResolveHost(std::string_view host) const {
  const auto id = FindByHost(host);
  if (!id) return {};
  const Service& svc = services_[*id];
  if (svc.dns_less) return {};
  // Each hostname gets four stable addresses spread over the service block.
  constexpr int kAddressesPerHost = 4;
  const std::uint64_t usable = svc.block.size() - 2;
  std::vector<net::Ipv4Address> out;
  out.reserve(kAddressesPerHost);
  const std::uint64_t base = util::Fnv1a64(host);
  for (int i = 0; i < kAddressesPerHost; ++i) {
    const std::uint64_t index =
        1 + (base * 2654435761ULL + static_cast<std::uint64_t>(i) * 40503ULL) % usable;
    out.push_back(svc.block.At(index));
  }
  return out;
}

}  // namespace lockdown::world
