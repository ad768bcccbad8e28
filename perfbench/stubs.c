/* TCP_QUICKACK for the load generator's socket.

   The generator multiplexes many independent requests over one
   connection.  Linux delays ACKs on a connection that looks interactive,
   and the daemon's replies go out with Nagle's algorithm on, so once two
   requests overlap a reply can wait for the ACK that the next request
   carries: latency then locks to the inter-arrival gap.  Re-arming quick
   ACKs after every read keeps each reply independent of the next request,
   as it would be on separate connections. */

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <caml/mlvalues.h>

value perfbench_quickack(value fd)
{
#ifdef TCP_QUICKACK
  int one = 1;
  (void)setsockopt(Int_val(fd), IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
#endif
  return Val_unit;
}

